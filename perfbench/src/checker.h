// Output checker, written apart from the program: it shares no code with
// core::verify_plan or src/audit and sees only plain copies of the inputs
// and of the plans the program returned.
//
// Per plan it re-simulates the file's holdings slot by slot and checks
//   links        every transfer uses a link of the overlay (or is storage),
//   window       every transfer lies in [release, release + T),
//   conservation each DC forwards or stores all it holds, never more,
//   delivery     the whole file is at its destination by the deadline.
// Over all plans it checks
//   capacity     each (link, slot) total stays within the link capacity,
//   cost         sum_l a_l * max_n volume_l(n) equals the program's cost.
// Every failure message starts with the name of the check that failed.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct CheckLink {
  int from = 0;
  int to = 0;
  double capacity = 0.0;
  double unit_cost = 0.0;
};

struct CheckFile {
  int id = 0;
  int source = 0;
  int destination = 0;
  double size = 0.0;
  int release = 0;
  int deadline = 0;  // T, in slots
};

struct CheckTransfer {
  int slot = 0;
  int from = 0;
  int to = 0;
  double volume = 0.0;
  int link = -1;  // -1 for storage
};

struct CheckPlan {
  int file_id = 0;
  std::vector<CheckTransfer> transfers;
};

class OutputChecker {
 public:
  OutputChecker(int num_dcs, std::vector<CheckLink> links);

  /// Checks one file's plan and adds its link volumes to the totals.
  void add_plan(const CheckFile& file, const CheckPlan& plan);

  /// Runs the capacity check over every plan added so far and compares the
  /// recomputed cost per interval with `program_cost`.
  void finish(double program_cost);

  /// Records a failure found outside the checker (replay, standby, ...).
  void fail(const std::string& message);

  double recomputed_cost() const;
  /// Highest (link, slot) total as a share of the link's capacity.
  double peak_utilization() const;
  long plans_checked() const { return plans_checked_; }
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  int num_dcs_;
  std::vector<CheckLink> links_;
  std::map<std::pair<int, int>, double> link_slot_volume_;  // (link, slot)
  long plans_checked_ = 0;
  std::vector<std::string> failures_;
};

}  // namespace perfbench
