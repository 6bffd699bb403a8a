from hypothesis import settings

# property tests draw the same examples on every run and keep no example
# database; no per-example deadline, which a loaded machine would trip
settings.register_profile("fockbench", derandomize=True, database=None, deadline=None,
                          max_examples=60)
settings.load_profile("fockbench")
