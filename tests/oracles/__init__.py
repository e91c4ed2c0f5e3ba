"""Reference implementations used only by the test suite.

Kept out of ``src/`` so that no runtime process imports them
(``tests/test_import_floor.py`` checks this)."""
