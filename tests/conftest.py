# ensures the tests directory is importable for shared helpers (fdcheck)
