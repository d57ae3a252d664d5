// Fixture for cmake/check_sources.cmake, never compiled: a span paired by
// hand, through an object and through a pointer.
void Emit(Tracer& t, Tracer* p) {
  t.BeginAt(10, kCat, kName, 0, 0, 0);  // expect: raw-span
  p->EndAt(20, kCat, kName, 0);  // expect: raw-span
  sim::ScopedSpan span(t, kCat, kName, 0);
}
