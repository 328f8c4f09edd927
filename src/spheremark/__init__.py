"""Keyed watermark channel on the unit hypersphere.

Payloads are unit vectors; a secret key selects a Haar-random
rotation hiding them; recovered vectors are scored by the chance
probability of their alignment; channels are simulated by calibrated
isotropic noise or exercised for real through a spread-spectrum
raster-image backend.
"""
from .channel import (ChannelProfile, SweepRow, Watermark, calibrate,
                      default_profiles, load_profiles, perturb, run_sweep,
                      write_sweep_csv)
from .errors import (CapacityExceededError, DegenerateLabelsError,
                     DimensionError, DimensionMismatchError, DomainError,
                     ImageFormatError, ImageSizeError, KeyFileError,
                     UnknownTransformError)
from .codec import Codec, Message, SignCodec, get_codec
from .confidence import (ELL_CAP, BlockReport, ConfidenceReport, assess, ell_from_p,
                         log_reg_inc_beta, reg_inc_beta, spherical_p_value)
from .imagechannel import CarrierSet, attack, embed, extract, transform_names
from .metrics import (NgramIndex, OperatingPoint, RocResult, ScoredSample,
                      bleu4, exact_match, novelty_score, roc, threshold_at_fpr)
from .netpbm import RasterImage, psnr, read_image, write_image
from .rotation import (RotationMatrix, SecretKey, load_key, rotate,
                       sample_rotation, save_key, unrotate)
from .sphere import DEFAULT_DIM, UnitVector, cosine, sample_uniform, unit

__version__ = "0.1.0"
