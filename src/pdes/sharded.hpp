// pdes::ShardedScenario: the historical name of the sharded runner.
//
// harness::Scenario is the engine for every shard count: it partitions
// spec.graph into spec.shard_count shards, builds one TopologyGraph whose
// nodes sit on their shard's simulator, and runs more than one shard with
// pdes::ShardEngine's conservative rounds (pdes/shard_engine.hpp). This
// class adds nothing; it exists so code written against the old name keeps
// compiling. New code uses harness::Scenario.
#pragma once

#include "harness/scenario.hpp"

namespace rrtcp::pdes {

class ShardedScenario : public harness::Scenario {
 public:
  using harness::Scenario::Scenario;
};

}  // namespace rrtcp::pdes
