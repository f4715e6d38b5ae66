#include "sim/timing_model.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/error.hpp"
#include "designs/design.hpp"
#include "optics/trace.hpp"

namespace otis::sim {

const char* skew_profile_name(SkewProfile profile) {
  switch (profile) {
    case SkewProfile::kNone:
      return "none";
    case SkewProfile::kConstant:
      return "const";
    case SkewProfile::kPerLevel:
      return "level";
  }
  return "?";
}

std::string TimingConfig::label() const {
  if (profile == SkewProfile::kNone) {
    return "none";
  }
  std::ostringstream os;
  os << skew_profile_name(profile) << "(t" << tuning_ticks << ",p"
     << propagation_ticks;
  if (profile == SkewProfile::kPerLevel) {
    os << ",l" << level_skew_ticks;
  }
  os << ",g" << guard_ticks << ")";
  return os.str();
}

void TimingConfig::validate() const {
  OTIS_REQUIRE(tuning_ticks >= 0 && propagation_ticks >= 0 &&
                   level_skew_ticks >= 0 && guard_ticks >= 0,
               "TimingConfig: delays must be >= 0 ticks");
  OTIS_REQUIRE(guard_ticks < kTicksPerSlot,
               "TimingConfig: guard band must be smaller than one slot");
  OTIS_REQUIRE(profile != SkewProfile::kNone || is_slot_aligned(),
               "TimingConfig: the \"none\" profile cannot carry delays "
               "(use const or level)");
  OTIS_REQUIRE(profile == SkewProfile::kPerLevel || level_skew_ticks == 0,
               "TimingConfig: level_skew_ticks requires the level profile");
}

void TimingModel::finalize() {
  max_propagation_ = 0;
  max_tuning_ = 0;
  min_propagation_ = tuning_.empty() ? 0 : propagation_[0];
  slot_aligned_ = guard_ == 0;
  for (std::size_t h = 0; h < tuning_.size(); ++h) {
    max_propagation_ = std::max(max_propagation_, propagation_[h]);
    max_tuning_ = std::max(max_tuning_, tuning_[h]);
    min_propagation_ = std::min(min_propagation_, propagation_[h]);
    if (tuning_[h] != 0 || propagation_[h] != 0) {
      slot_aligned_ = false;
    }
  }
}

TimingModel TimingModel::compile(const hypergraph::StackGraph& network,
                                 const TimingConfig& config) {
  config.validate();
  const std::int64_t couplers = network.hypergraph().hyperarc_count();
  TimingModel model;
  model.guard_ = config.guard_ticks;
  model.tuning_.assign(static_cast<std::size_t>(couplers),
                       config.profile == SkewProfile::kNone
                           ? 0
                           : config.tuning_ticks);
  model.propagation_.assign(static_cast<std::size_t>(couplers), 0);
  if (config.profile != SkewProfile::kNone) {
    const graph::Digraph& base = network.base();
    for (hypergraph::HyperarcId h = 0; h < couplers; ++h) {
      SimTime delay = config.propagation_ticks;
      if (config.profile == SkewProfile::kPerLevel) {
        // Stack level of a coupler: the linear-layout distance between
        // the groups its base arc connects (a rack-distance proxy).
        const graph::ArcId arc = network.arc_of_coupler(h);
        const SimTime level = std::abs(base.head(arc) - base.tail(arc));
        delay += level * config.level_skew_ticks;
      }
      model.propagation_[static_cast<std::size_t>(h)] = delay;
    }
  }
  model.finalize();
  return model;
}

TimingModel TimingModel::from_trace(const hypergraph::StackGraph& network,
                                    const designs::NetworkDesign& design,
                                    double ticks_per_component,
                                    SimTime tuning_ticks,
                                    SimTime guard_ticks) {
  OTIS_REQUIRE(ticks_per_component >= 0.0,
               "TimingModel: ticks_per_component must be >= 0");
  OTIS_REQUIRE(tuning_ticks >= 0 && guard_ticks >= 0,
               "TimingModel: delays must be >= 0 ticks");
  OTIS_REQUIRE(design.processor_count == network.node_count(),
               "TimingModel: design does not realize this network");
  const auto& hg = network.hypergraph();
  TimingModel model;
  model.guard_ = guard_ticks;
  model.tuning_.assign(static_cast<std::size_t>(hg.hyperarc_count()),
                       tuning_ticks);
  model.propagation_.assign(static_cast<std::size_t>(hg.hyperarc_count()), 0);
  const optics::LossModel loss{};
  for (hypergraph::Node p = 0; p < hg.node_count(); ++p) {
    const auto& outs = hg.out_hyperarcs(p);
    const auto& txs =
        design.tx_of_processor[static_cast<std::size_t>(p)];
    OTIS_REQUIRE(txs.size() == outs.size(),
                 "TimingModel: design transmitter slots do not match the "
                 "node's out-couplers");
    for (std::size_t c = 0; c < outs.size(); ++c) {
      // Worst traced chain through this transmitter bounds the fiber
      // length of the coupler it feeds.
      std::size_t longest = 0;
      for (const optics::TraceEndpoint& endpoint :
           optics::trace_from_transmitter(design.netlist, txs[c], loss)) {
        longest = std::max(longest, endpoint.path.size());
      }
      auto& delay = model.propagation_[static_cast<std::size_t>(outs[c])];
      delay = std::max(delay,
                       static_cast<SimTime>(std::llround(
                           static_cast<double>(longest) *
                           ticks_per_component)));
    }
  }
  model.finalize();
  return model;
}

}  // namespace otis::sim
