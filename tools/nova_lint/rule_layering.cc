// layering: include-graph enforcement of the architecture ladder
//
//   sim(0) -> hw(1) -> hv(2) -> {services, root, vmm, guest, baseline}(3)
//
// A layer may include its own rank or below, never above: the simulator
// substrate cannot know about devices, devices cannot know about the
// hypervisor, and the hypervisor cannot know about user-level components.
// This is the repository's small-TCB argument (PAPER.md section 3) made
// mechanical — an upward include silently grows what the lower layer
// depends on. Tests, benches, examples and tools consume everything and
// are unrestricted.
#include <string>

#include "tools/nova_lint/rule.h"

namespace nova::lint {
namespace {

// Extracts the layer of `#include "src/<layer>/..."` from a raw line, or
// "" when the line is not such an include.
std::string IncludedLayer(const std::string& raw) {
  std::size_t pos = raw.find('#');
  if (pos == std::string::npos) return "";
  pos = raw.find("include", pos);
  if (pos == std::string::npos) return "";
  pos = raw.find('"', pos);
  if (pos == std::string::npos) return "";
  const std::string prefix = "src/";
  if (raw.compare(pos + 1, prefix.size(), prefix) != 0) return "";
  const std::size_t start = pos + 1 + prefix.size();
  const std::size_t end = raw.find('/', start);
  if (end == std::string::npos) return "";
  return raw.substr(start, end - start);
}

class LayeringRule : public Rule {
 public:
  const char* name() const override { return "layering"; }

  void Check(const FileCtx& ctx, Findings* out) const override {
    const SourceFile& file = ctx.file;
    const std::string own_layer = LayerOf(file.path());
    const int own_rank = LayerRank(own_layer);
    if (own_rank < 0) return;  // not in src/: unrestricted consumer

    for (int line = 1; line <= file.line_count(); ++line) {
      const std::string layer = IncludedLayer(file.RawLine(line));
      if (layer.empty()) continue;
      const int rank = LayerRank(layer);
      if (rank < 0 || rank <= own_rank) continue;
      out->push_back({name(), file.path(), line,
                      "src/" + own_layer + " (rank " +
                          std::to_string(own_rank) + ") includes src/" +
                          layer + " (rank " + std::to_string(rank) +
                          "); dependencies must point down the ladder "
                          "sim -> hw -> hv -> {services,root,...}"});
    }
  }
};

}  // namespace

std::unique_ptr<Rule> MakeLayeringRule() {
  return std::make_unique<LayeringRule>();
}

}  // namespace nova::lint
