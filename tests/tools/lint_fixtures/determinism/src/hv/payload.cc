// Fixture: an address leaking into a snapshot through the archive
// visitor (1 finding). The value differs between runs and between a
// checkpointed node and its restored twin.
class Widget {
 public:
  template <class Ar>
  void Io(Ar& ar) {
    ar.Io(count_, reinterpret_cast<std::uintptr_t>(next_));  // finding
  }

 private:
  int count_ = 0;
  Widget* next_ = nullptr;
};
