"""Empty: kept only because bench/run.py imports each bench/layertrace.LAYERS."""
