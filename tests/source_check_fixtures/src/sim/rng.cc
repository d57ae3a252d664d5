// Fixture for cmake/check_sources.cmake, never compiled: sim::Rng may
// name host randomness.
std::mt19937_64 engine;
