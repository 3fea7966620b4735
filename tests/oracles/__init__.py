"""Independent reference computations the tests check the library against."""
