from hypothesis import settings

# Property tests run as part of the default suite, so they must be
# reproducible (no random seed, no example database carried between
# runs) and bounded in time (a fixed example count, no per-example
# deadline that a loaded host could trip).
settings.register_profile(
    "posvec", derandomize=True, database=None, deadline=None, max_examples=100
)
settings.load_profile("posvec")
