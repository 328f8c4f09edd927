"""``python -m spheremark``: the spheremark command line."""
from .cli import run

if __name__ == "__main__":
    run()
