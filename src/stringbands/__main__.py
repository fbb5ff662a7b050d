from .cli import run

# guarded: run ends the process, so an import (pydoc, a test) must not reach it
if __name__ == "__main__":
    run()
