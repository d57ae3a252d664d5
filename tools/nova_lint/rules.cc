#include "tools/nova_lint/rule.h"

namespace nova::lint {

std::vector<std::unique_ptr<Rule>> AllRules() {
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(MakeRawSpanRule());
  rules.push_back(MakeLayeringRule());
  rules.push_back(MakeUncheckedDowncastRule());
  rules.push_back(MakePerCpuStateRule());
  rules.push_back(MakeDeterminismRule());
  return rules;
}

}  // namespace nova::lint
