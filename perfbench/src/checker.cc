#include "checker.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace perfbench {

namespace {

// Volumes are GB-sized doubles out of an LP; 1e-6 relative is far below
// any real fault and far above the solver's rounding.
double tolerance(double scale) { return 1e-6 * std::max(1.0, scale); }

}  // namespace

OutputChecker::OutputChecker(int num_dcs, std::vector<CheckLink> links)
    : num_dcs_(num_dcs), links_(std::move(links)) {}

void OutputChecker::fail(const std::string& message) {
  // A broken run can fail the same check thousands of times; the first
  // few name it well enough.
  if (failures_.size() < 20) failures_.push_back(message);
}

void OutputChecker::add_plan(const CheckFile& file, const CheckPlan& plan) {
  ++plans_checked_;
  const double tol = tolerance(file.size);
  const int first = file.release;
  const int last = file.release + file.deadline - 1;
  auto where = [&](const std::string& check) {
    std::ostringstream os;
    os << check << ": file " << file.id << ": ";
    return os.str();
  };

  for (const CheckTransfer& t : plan.transfers) {
    if (t.slot < first || t.slot > last) {
      std::ostringstream os;
      os << where("window") << "transfer at slot " << t.slot
         << " outside [" << first << ", " << last + 1 << ")";
      fail(os.str());
    }
    if (!(t.volume >= -tol)) {
      fail(where("conservation") + "negative volume");
    }
    if (t.link < 0) {
      if (t.from != t.to || t.from < 0 || t.from >= num_dcs_) {
        fail(where("links") + "storage transfer is not a DC self-loop");
      }
      continue;
    }
    if (t.link >= static_cast<int>(links_.size()) ||
        links_[static_cast<std::size_t>(t.link)].from != t.from ||
        links_[static_cast<std::size_t>(t.link)].to != t.to) {
      std::ostringstream os;
      os << where("links") << "no link " << t.link << " from DC" << t.from
         << " to DC" << t.to;
      fail(os.str());
      continue;
    }
    link_slot_volume_[{t.link, t.slot}] += t.volume;
  }

  // Re-simulate holdings from the release slot to the deadline.
  std::vector<double> held(static_cast<std::size_t>(num_dcs_), 0.0);
  if (file.source < 0 || file.source >= num_dcs_ || file.destination < 0 ||
      file.destination >= num_dcs_) {
    fail(where("links") + "endpoint outside the overlay");
    return;
  }
  held[static_cast<std::size_t>(file.source)] = file.size;
  bool conserved = true;
  for (int slot = first; slot <= last; ++slot) {
    std::vector<double> out(held.size(), 0.0);
    std::vector<double> next(held.size(), 0.0);
    for (const CheckTransfer& t : plan.transfers) {
      if (t.slot != slot || t.from < 0 || t.from >= num_dcs_ || t.to < 0 ||
          t.to >= num_dcs_) {
        continue;
      }
      out[static_cast<std::size_t>(t.from)] += t.volume;
      next[static_cast<std::size_t>(t.to)] += t.volume;
    }
    for (int v = 0; v < num_dcs_; ++v) {
      const auto i = static_cast<std::size_t>(v);
      const bool dest = v == file.destination;
      // The destination keeps what it received; every other DC must
      // forward or store exactly what it holds.
      const bool bad = dest ? out[i] > held[i] + tol
                            : std::abs(out[i] - held[i]) > tol;
      if (bad && conserved) {  // the first imbalance names the fault
        std::ostringstream os;
        os << where("conservation") << "DC" << v << " holds " << held[i]
           << " GB at slot " << slot << " but moves " << out[i];
        fail(os.str());
        conserved = false;
      }
      if (dest) next[i] += held[i] - out[i];
    }
    held = std::move(next);
  }
  const double delivered = held[static_cast<std::size_t>(file.destination)];
  if (std::abs(delivered - file.size) > tol) {
    std::ostringstream os;
    os << where("delivery") << delivered << " of " << file.size
       << " GB at DC" << file.destination << " by slot " << last + 1;
    fail(os.str());
  }
}

double OutputChecker::recomputed_cost() const {
  std::vector<double> peak(links_.size(), 0.0);
  for (const auto& [key, volume] : link_slot_volume_) {
    double& p = peak[static_cast<std::size_t>(key.first)];
    p = std::max(p, volume);
  }
  double cost = 0.0;
  for (std::size_t l = 0; l < links_.size(); ++l) {
    cost += links_[l].unit_cost * peak[l];
  }
  return cost;
}

double OutputChecker::peak_utilization() const {
  double peak = 0.0;
  for (const auto& [key, volume] : link_slot_volume_) {
    const double cap = links_[static_cast<std::size_t>(key.first)].capacity;
    if (cap > 0.0) peak = std::max(peak, volume / cap);
  }
  return peak;
}

void OutputChecker::finish(double program_cost) {
  for (const auto& [key, volume] : link_slot_volume_) {
    const double cap = links_[static_cast<std::size_t>(key.first)].capacity;
    if (volume > cap + tolerance(cap)) {
      std::ostringstream os;
      os << "capacity: link " << key.first << " carries " << volume
         << " GB in slot " << key.second << " over its capacity " << cap;
      fail(os.str());
    }
  }
  const double cost = recomputed_cost();
  if (std::abs(cost - program_cost) > 1e-6 * std::max(1.0, cost)) {
    std::ostringstream os;
    os.precision(12);
    os << "cost: program reports " << program_cost
       << " per interval, the plans cost " << cost;
    fail(os.str());
  }
}

}  // namespace perfbench
