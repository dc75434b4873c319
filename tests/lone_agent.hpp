// A standalone ApAgent for unit tests: it owns the compile service and the
// one-slot state slab that a CityMeshNetwork provides to its agents.
#pragma once

#include "core/ap_agent.hpp"

struct LoneAgent {
  LoneAgent(citymesh::mesh::ApId id, citymesh::geo::Point position,
            citymesh::core::BuildingId building, const citymesh::core::BuildingGraph& map)
      : compiler(map), agent(id, position, building, map, compiler, slab, 0) {}
  LoneAgent(const LoneAgent&) = delete;
  LoneAgent& operator=(const LoneAgent&) = delete;

  citymesh::core::MessageCompiler compiler;
  citymesh::core::AgentStateSlab slab{1};
  citymesh::core::ApAgent agent;
};
