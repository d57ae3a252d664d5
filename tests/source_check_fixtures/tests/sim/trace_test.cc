// Fixture for cmake/check_sources.cmake, never compiled: the tracer's own
// tests pair spans by hand on purpose.
void Crossed(Tracer& t) {
  t.BeginAt(1, kCat, kName, 0, 0, 0);
  t.EndAt(2, kCat, kName, 0);
}
