// The checker's self-test: a three-DC instance with two valid plans, and
// one seeded fault for each of four checks. The unmodified instance must
// pass; each faulty copy must fail the named check.
#include <algorithm>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

namespace {

// Links 0: DC0->DC1, 1: DC1->DC2, 2: DC0->DC2, all 10 GB per slot.
std::vector<CheckLink> links() {
  return {{0, 1, 10.0, 2.0}, {1, 2, 10.0, 3.0}, {0, 2, 10.0, 5.0}};
}

struct Instance {
  std::vector<CheckFile> files;
  std::vector<CheckPlan> plans;
  double program_cost = 0.0;
};

// File 0: 8 GB DC0->DC2 over two hops within T = 2; file 1: 6 GB direct.
// Cost per interval = 2*8 + 3*8 + 5*6 = 70.
Instance valid() {
  Instance in;
  in.files = {{0, 0, 2, 8.0, 0, 2}, {1, 0, 2, 6.0, 0, 1}};
  in.plans = {{0, {{0, 0, 1, 8.0, 0}, {1, 1, 2, 8.0, 1}}},
              {1, {{0, 0, 2, 6.0, 2}}}};
  in.program_cost = 70.0;
  return in;
}

std::vector<std::string> check(const Instance& in) {
  OutputChecker checker(3, links());
  for (std::size_t i = 0; i < in.files.size(); ++i) {
    checker.add_plan(in.files[i], in.plans[i]);
  }
  checker.finish(in.program_cost);
  return checker.failures();
}

bool names(const std::vector<std::string>& failures, const std::string& name) {
  return std::any_of(failures.begin(), failures.end(),
                     [&](const std::string& f) { return f.rfind(name, 0) == 0; });
}

}  // namespace

void checker_self_test(std::vector<std::string>* failures) {
  if (!check(valid()).empty()) {
    failures->push_back("self-test: the valid instance fails: " +
                        check(valid()).front());
  }

  Instance late = valid();  // second hop one slot past the deadline
  late.plans[0].transfers[1].slot = 2;
  if (!names(check(late), "window")) {
    failures->push_back("self-test: a transfer past its deadline passed");
  }

  Instance over = valid();  // a third file fills link 0 past 10 GB
  over.files.push_back({2, 0, 1, 5.0, 0, 1});
  over.plans.push_back({2, {{0, 0, 1, 5.0, 0}}});
  over.program_cost = 80.0;
  if (!names(check(over), "capacity")) {
    failures->push_back("self-test: a volume over capacity passed");
  }

  Instance short_hop = valid();  // the last hop is missing
  short_hop.plans[0].transfers.pop_back();
  if (!names(check(short_hop), "delivery")) {
    failures->push_back("self-test: a plan one hop short passed");
  }

  Instance cost = valid();  // program cost 1% off
  cost.program_cost *= 1.01;
  if (!names(check(cost), "cost")) {
    failures->push_back("self-test: a cost off by 1% passed");
  }
}

}  // namespace perfbench
