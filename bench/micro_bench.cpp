// Microbenchmarks (google-benchmark) for the hot paths of the CityMesh
// stack: route planning, conduit compression, the per-packet rebroadcast
// decision, header codec, spatial queries, the event engine, and the crypto
// primitives. These are the operations a real AP agent or sender executes
// per packet, so their costs bound achievable forwarding rates.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <span>
#include <string>

#include "bench_util.hpp"
#include "core/ap_agent.hpp"
#include "core/building_graph.hpp"
#include "core/compiled_message.hpp"
#include "core/conduit.hpp"
#include "core/route_planner.hpp"
#include "cryptox/chacha20.hpp"
#include "cryptox/ed25519.hpp"
#include "cryptox/sealed.hpp"
#include "cryptox/sha256.hpp"
#include "cryptox/x25519.hpp"
#include "geo/rng.hpp"
#include "geo/spatial_grid.hpp"
#include "graphx/alt.hpp"
#include "graphx/graph.hpp"
#include "graphx/shortest_path.hpp"
#include "medium_test_owner.hpp"
#include "mesh/ap_network.hpp"
#include "obsx/metrics.hpp"
#include "osmx/citygen.hpp"
#include "qfgeo/qfgeo.hpp"
#include "relayx/policy.hpp"
#include "runx/city_cache.hpp"
#include "runx/engine.hpp"
#include "shardx/tiling.hpp"
#include "sim/medium.hpp"
#include "sim/simulator.hpp"
#include "trafficx/workload.hpp"
#include "wire/packet.hpp"

namespace core = citymesh::core;
namespace osmx = citymesh::osmx;
namespace geo = citymesh::geo;
namespace graphx = citymesh::graphx;
namespace wire = citymesh::wire;
namespace cryptox = citymesh::cryptox;

namespace {

const osmx::City& boston() {
  static const osmx::City city = osmx::generate_city(osmx::profile_by_name("boston"));
  return city;
}

const core::BuildingGraph& boston_map() {
  static const core::BuildingGraph map{boston(), {}};
  return map;
}

wire::PacketHeader typical_header() {
  wire::PacketHeader h;
  h.message_id = 0x1234abcd;
  h.postbox_tag = 0x9876fedc;
  h.waypoints = {40210, 40180, 39920, 39410, 38900, 38350, 38100};
  return h;
}

}  // namespace

// ------------------------------------------------------------- planning ---

static void BM_RoutePlan(benchmark::State& state) {
  const core::RoutePlanner planner{boston_map(), {}};
  geo::Rng rng{1};
  const auto n = boston_map().building_count();
  for (auto _ : state) {
    const auto a = static_cast<core::BuildingId>(rng.uniform_int(n));
    const auto b = static_cast<core::BuildingId>(rng.uniform_int(n));
    benchmark::DoNotOptimize(planner.plan(a, b));
  }
}
BENCHMARK(BM_RoutePlan)->Unit(benchmark::kMillisecond);

/// Boston downtown-hotspot flow endpoints (bias 16, as in the perfbench
/// capacity-hotspot workload), the traffic that makes planning expensive.
static const std::vector<citymesh::trafficx::Flow>& boston_hotspot_flows() {
  static const auto flows = [] {
    citymesh::trafficx::WorkloadSpec spec;
    spec.seed = 1;
    spec.duration_s = 20.0;
    spec.rate_per_s = 32.0;
    spec.spatial = citymesh::trafficx::SpatialMode::kHotspot;
    spec.hotspot_bias = 16.0;
    return citymesh::trafficx::compile(spec, boston()).flows;
  }();
  return flows;
}

// One hotspot plan on a fresh workspace: the ALT search over the planning
// graph (essential edges), compression and header sizing.
static void BM_RoutePlanHotspot(benchmark::State& state) {
  const core::RoutePlanner planner{boston_map(), {}};
  const auto& flows = boston_hotspot_flows();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.plan(flows[i].src, flows[i].dst));
    if (++i == flows.size()) i = 0;
  }
  state.SetLabel(std::to_string(boston_map().planning_graph().edge_count()) + " of " +
                 std::to_string(boston_map().graph().edge_count()) + " edges");
}
BENCHMARK(BM_RoutePlanHotspot)->Unit(benchmark::kMicrosecond);

// The path search alone on the same flows: /0 the targeted Dijkstra over
// the full building graph, /1 over the planning graph (identical paths,
// fewer relaxations), /2 the planner's ALT query over the planning graph
// (identical paths, a reused workspace, far fewer settled vertices).
static void BM_HotspotDijkstra(benchmark::State& state) {
  const core::BuildingGraph& map = boston_map();
  const graphx::Graph& g = state.range(0) == 0 ? map.graph() : map.planning_graph();
  const graphx::LandmarkTable& table = map.landmarks();  // built before timing
  graphx::AltSearch search;
  const auto& flows = boston_hotspot_flows();
  std::size_t i = 0;
  for (auto _ : state) {
    if (state.range(0) == 2) {
      benchmark::DoNotOptimize(search.path(g, table, flows[i].src, flows[i].dst));
    } else {
      benchmark::DoNotOptimize(graphx::dijkstra(g, flows[i].src, flows[i].dst));
    }
    if (++i == flows.size()) i = 0;
  }
}
BENCHMARK(BM_HotspotDijkstra)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

// The one-time landmark table build a map pays on its first plan: one full
// Dijkstra per landmark (up to BuildingGraph::kLandmarks, eight) over
// boston's planning graph.
static void BM_LandmarkTable(benchmark::State& state) {
  for (auto _ : state) {
    const core::BuildingGraph map{boston(), {}};
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(map.landmarks());
    state.SetIterationTime(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count());
  }
}
BENCHMARK(BM_LandmarkTable)->UseManualTime()->Unit(benchmark::kMillisecond);

// ------------------------------------------------------ ideal-hop query ---

namespace {

const citymesh::mesh::ApNetwork& boston_aps() {
  static const citymesh::mesh::ApNetwork net =
      citymesh::mesh::place_aps(boston(), citymesh::mesh::PlacementConfig{});
  return net;
}

/// Paper-eval-style ideal-hop queries: the representative AP of a random
/// building to every AP of another random building, connected pairs only.
struct HopQuery {
  citymesh::mesh::ApId from;
  osmx::BuildingId to;
};

const std::vector<HopQuery>& boston_hop_queries() {
  static const std::vector<HopQuery> queries = [] {
    const auto& net = boston_aps();
    geo::Rng rng{0x1DEA1};
    std::vector<HopQuery> out;
    while (out.size() < 256) {
      const auto a = static_cast<osmx::BuildingId>(rng.uniform_int(boston().building_count()));
      const auto b = static_cast<osmx::BuildingId>(rng.uniform_int(boston().building_count()));
      const auto from = net.representative_ap(boston(), a);
      const auto& targets = net.aps_of_building(b);
      if (!from || targets.empty() || a == b || !net.connected(*from, targets.front())) continue;
      out.push_back({*from, b});
    }
    return out;
  }();
  return queries;
}

/// The level BFS the library's A* replaced, kept as the reference: one whole
/// level at a time, returning on the first target it reaches.
std::optional<std::size_t> level_bfs_min_hops(const citymesh::mesh::ApNetwork& net,
                                              citymesh::mesh::ApId from,
                                              std::span<const citymesh::mesh::ApId> targets) {
  enum : std::uint8_t { kUnseen, kSeen, kTarget };
  std::vector<std::uint8_t> mark(net.ap_count(), kUnseen);
  for (const auto t : targets) {
    if (t == from) return 0;
    mark[t] = kTarget;
  }
  mark[from] = kSeen;
  std::vector<citymesh::mesh::ApId> frontier{from};
  std::vector<citymesh::mesh::ApId> next;
  for (std::size_t depth = 1; !frontier.empty(); ++depth) {
    next.clear();
    for (const auto v : frontier) {
      for (const graphx::VertexId u : net.graph().neighbors(v)) {
        if (mark[u] == kTarget) return depth;
        if (mark[u] == kUnseen) {
          mark[u] = kSeen;
          next.push_back(u);
        }
      }
    }
    frontier.swap(next);
  }
  return std::nullopt;
}

}  // namespace

// Arg 0: ApNetwork::min_hops (A* over the radio-range and hop-landmark
// bounds); arg 1: the level-BFS reference. One query per iteration, cycling
// through the pairs; the landmark table is built before timing.
static void BM_MinHops(benchmark::State& state) {
  const auto& net = boston_aps();
  const auto& queries = boston_hop_queries();
  benchmark::DoNotOptimize(net.hop_bounds());
  std::size_t i = 0;
  for (auto _ : state) {
    const HopQuery& q = queries[i++ % queries.size()];
    const auto& targets = net.aps_of_building(q.to);
    benchmark::DoNotOptimize(state.range(0) == 0 ? net.min_hops(q.from, targets)
                                                 : level_bfs_min_hops(net, q.from, targets));
  }
}
BENCHMARK(BM_MinHops)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

static void BM_ConduitCompress(benchmark::State& state) {
  const auto& map = boston_map();
  // One long fixed route.
  geo::Rng rng{2};
  std::vector<core::BuildingId> route;
  const core::RoutePlanner planner{map, {}};
  while (route.size() < 20) {
    const auto a = static_cast<core::BuildingId>(rng.uniform_int(map.building_count()));
    const auto b = static_cast<core::BuildingId>(rng.uniform_int(map.building_count()));
    const auto planned = planner.plan_uncompressed(a, b);
    if (planned) route = planned->buildings;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compress_route(route, map, {}));
  }
  state.SetLabel(std::to_string(route.size()) + " buildings");
}
BENCHMARK(BM_ConduitCompress);

static void BM_RebroadcastDecision(benchmark::State& state) {
  const auto& map = boston_map();
  // A real cross-town route's header so the conduit count is representative.
  // The very last ids can sit across the river from building 0; walk back
  // until a spanning route exists.
  const core::RoutePlanner planner{map, {}};
  std::optional<core::PlannedRoute> route;
  for (auto target = static_cast<core::BuildingId>(map.building_count() - 1);
       target > 0 && (!route || route->waypoints.size() < 4); --target) {
    route = planner.plan(0, target);
  }
  wire::PacketHeader h = typical_header();
  if (route) h.waypoints = route->waypoints;
  const auto building = static_cast<core::BuildingId>(map.building_count() / 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::should_rebroadcast(h, map, building));
  }
  state.SetLabel(std::to_string(h.waypoints.size()) + " waypoints");
}
BENCHMARK(BM_RebroadcastDecision);

namespace {

// Shared setup for the per-reception cost comparison: a real cross-town
// route's header (same construction as BM_RebroadcastDecision).
wire::PacketHeader crosstown_header() {
  const auto& map = boston_map();
  const core::RoutePlanner planner{map, {}};
  std::optional<core::PlannedRoute> route;
  for (auto target = static_cast<core::BuildingId>(map.building_count() - 1);
       target > 0 && (!route || route->waypoints.size() < 4); --target) {
    route = planner.plan(0, target);
  }
  wire::PacketHeader h = typical_header();
  if (route) h.waypoints = route->waypoints;
  return h;
}

}  // namespace

// The full per-reception pipeline the pre-compile ApAgent ran on every hop:
// decode the header bytes, rebuild the ConduitPath, point-test the centroid.
static void BM_RebroadcastDecisionLegacy(benchmark::State& state) {
  const auto& map = boston_map();
  const wire::PacketHeader h = crosstown_header();
  const auto enc = wire::encode_header(h);
  const auto building = static_cast<core::BuildingId>(map.building_count() / 2);
  for (auto _ : state) {
    const wire::PacketHeader decoded = wire::decode_header(enc.bytes);
    benchmark::DoNotOptimize(core::should_rebroadcast(decoded, map, building));
  }
  state.SetLabel(std::to_string(h.waypoints.size()) + " waypoints");
}
BENCHMARK(BM_RebroadcastDecisionLegacy);

// The same decision against a shared CompiledMessage: one bitmap load,
// zero allocations. The ratio to Legacy is the per-reception win the
// compile-once refactor banks on every hop of a flood.
static void BM_RebroadcastDecisionCompiled(benchmark::State& state) {
  const auto& map = boston_map();
  const core::CompiledMessage msg = core::compile_message(crosstown_header(), map);
  const auto building = static_cast<core::BuildingId>(map.building_count() / 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(msg.conduit_member(building));
  }
  state.SetLabel(std::to_string(msg.members.size()) + " member buildings, " +
                 std::to_string(msg.members.heap_bytes()) + " B");
}
BENCHMARK(BM_RebroadcastDecisionCompiled);

// The one-time price of compiling a message (decode + conduit rebuild +
// grid-driven member-set construction): paid once per distinct message,
// amortized over every reception that previously paid Legacy.
static void BM_MessageCompile(benchmark::State& state) {
  const auto& map = boston_map();
  core::MessageCompiler compiler{map};
  const auto enc = wire::encode_header(crosstown_header());
  for (auto _ : state) {
    compiler.clear_memo();  // force a real compile, not a memo hit
    benchmark::DoNotOptimize(compiler.compile_bytes(enc.bytes));
  }
}
BENCHMARK(BM_MessageCompile);

// ---------------------------------------------------------------- qfgeo ---

// One-time QF-Geo region plan for a cross-town pair: ellipse construction +
// grid-prefiltered member-set build (src/qfgeo). The qfgeo counterpart of
// BM_MessageCompile — paid once per distinct message, amortized over every
// reception.
static void BM_QfgeoRegionPlan(benchmark::State& state) {
  const auto& map = boston_map();
  const geo::Point src = map.centroid(0);
  const geo::Point dst = map.centroid(
      static_cast<core::BuildingId>(map.building_count() - 1));
  std::size_t members = 0;
  for (auto _ : state) {
    const auto region = citymesh::qfgeo::make_region(src, dst, {});
    const auto set = citymesh::qfgeo::region_members(region, map.centroid_grid());
    members = set.size();
    benchmark::DoNotOptimize(set.size());
  }
  state.SetLabel(std::to_string(members) + " member buildings");
}
BENCHMARK(BM_QfgeoRegionPlan);

// The per-reception in-region membership check under protocol=qfgeo: same
// one-bitmap-load collapse as BM_RebroadcastDecisionCompiled, against the
// ellipse member set instead of the conduit corridor.
static void BM_QfgeoMembershipCheck(benchmark::State& state) {
  const auto& map = boston_map();
  wire::PacketHeader h = typical_header();
  h.waypoints = {0, static_cast<core::BuildingId>(map.building_count() - 1)};
  const core::CompiledMessage msg = core::compile_message_qfgeo(h, map, {});
  const auto building = static_cast<core::BuildingId>(map.building_count() / 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(msg.conduit_member(building));
  }
  state.SetLabel(std::to_string(msg.members.size()) + " member buildings, " +
                 std::to_string(msg.members.heap_bytes()) + " B");
}
BENCHMARK(BM_QfgeoMembershipCheck);

// The greedy next-hop election entry: the pure-arithmetic delay every
// in-region progress-making receiver computes per reception (no RNG, no
// allocation — it must stay in the ns regime like the flood elect).
static void BM_QfgeoForwardDelay(benchmark::State& state) {
  const citymesh::qfgeo::ForwarderConfig config;
  double my = 480.0;
  std::size_t queued = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        citymesh::qfgeo::forward_delay(config, my, 500.0, queued));
    my = my > 460.0 ? my - 1.0 : 480.0;
    queued = (queued + 1) % 4;
  }
}
BENCHMARK(BM_QfgeoForwardDelay);

// --------------------------------------------------------------- relayx ---

namespace {

// Receptions cycling over real (ap, neighbor) link pairs, so observe() pays
// a representative CSR neighbor scan and elect() a representative score sum.
std::vector<citymesh::relayx::Reception> link_receptions() {
  const auto& net = boston_aps();
  std::vector<citymesh::relayx::Reception> rx;
  for (citymesh::mesh::ApId ap = 0; ap < net.ap_count() && rx.size() < 4096; ++ap) {
    for (const graphx::VertexId to : net.graph().neighbors(ap)) {
      rx.push_back({ap, to, 1, 0.0});
      if (rx.size() >= 4096) break;
    }
  }
  return rx;
}

}  // namespace

// The flood fast path: the per-reception policy cost the golden-gated
// default pipeline adds over the bare membership check. Must stay in the
// low-ns regime (it is a virtual call returning a constant).
static void BM_RelayPolicyFloodElect(benchmark::State& state) {
  const auto policy = citymesh::relayx::make_policy({}, boston_aps());
  const auto rx = link_receptions();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy->elect(rx[i]));
    if (++i == rx.size()) i = 0;
  }
}
BENCHMARK(BM_RelayPolicyFloodElect);

// etx-priority election: per-AP link-quality score (CSR row scan) + one RNG
// draw. The most expensive shipped decision path; bounds the rate at which
// a loaded AP can arm rebroadcast timers.
static void BM_RelayPolicyEtxElect(benchmark::State& state) {
  citymesh::relayx::PolicyConfig config;
  config.kind = citymesh::relayx::PolicyKind::kEtxPriority;
  const auto policy = citymesh::relayx::make_policy(config, boston_aps());
  const auto rx = link_receptions();
  for (const auto& r : rx) policy->observe(r);  // warm the link estimates
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy->elect(rx[i]));
    if (++i == rx.size()) i = 0;
  }
}
BENCHMARK(BM_RelayPolicyEtxElect);

// etx-priority link-estimate update: runs on *every* reception, duplicates
// included, so it must stay cheaper than the elect path.
static void BM_RelayPolicyEtxObserve(benchmark::State& state) {
  citymesh::relayx::PolicyConfig config;
  config.kind = citymesh::relayx::PolicyKind::kEtxPriority;
  const auto policy = citymesh::relayx::make_policy(config, boston_aps());
  const auto rx = link_receptions();
  std::size_t i = 0;
  for (auto _ : state) {
    policy->observe(rx[i]);
    if (++i == rx.size()) i = 0;
  }
}
BENCHMARK(BM_RelayPolicyEtxObserve);

static void BM_BuildingGraphConstruction(benchmark::State& state) {
  for (auto _ : state) {
    const core::BuildingGraph map{boston(), {}};
    benchmark::DoNotOptimize(map.graph().edge_count());
  }
  state.SetLabel(std::to_string(boston().building_count()) + " buildings");
}
BENCHMARK(BM_BuildingGraphConstruction)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------- codec ---

static void BM_HeaderEncode(benchmark::State& state) {
  const auto h = typical_header();
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::encode_header(h));
  }
}
BENCHMARK(BM_HeaderEncode);

static void BM_HeaderDecode(benchmark::State& state) {
  const auto enc = wire::encode_header(typical_header());
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::decode_header(enc.bytes));
  }
}
BENCHMARK(BM_HeaderDecode);

// -------------------------------------------------------------- spatial ---

static void BM_SpatialGridQuery(benchmark::State& state) {
  geo::Rng rng{3};
  std::vector<geo::Point> pts;
  for (int i = 0; i < 20000; ++i) {
    pts.push_back({rng.uniform(0, 3000), rng.uniform(0, 3000)});
  }
  const geo::SpatialGrid grid{50.0, pts};
  for (auto _ : state) {
    const geo::Point c{rng.uniform(0, 3000), rng.uniform(0, 3000)};
    benchmark::DoNotOptimize(grid.query_radius(c, 50.0));
  }
}
BENCHMARK(BM_SpatialGridQuery);

// --------------------------------------------------------------- engine ---

static void BM_EventEngineThroughput(benchmark::State& state) {
  for (auto _ : state) {
    citymesh::sim::Simulator s;
    int count = 0;
    std::function<void()> tick = [&] {
      if (++count < 10000) s.schedule_in(1e-3, tick);
    };
    s.schedule_at(0.0, tick);
    s.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventEngineThroughput)->Unit(benchmark::kMillisecond);

// Hold model (the classic event-queue benchmark): keep N events pending
// and repeatedly pop-then-push, so cost per operation is measured at a
// steady queue depth. Arg is the pending-set size; 10^3..10^6 shows where
// the heap's log N starts to bite. (The simulations themselves keep far
// fewer events pending: one batch node per transmission in flight.)
//
// A probe lap after the timed loop times each op individually and keeps the
// worst one; the maxima land in the per-run counters and, via main(), in the
// manifest params (outside the digest — they are machine-dependent).
static std::map<std::string, double> g_hold_max_ns;

static void BM_SchedulerHold(benchmark::State& state) {
  const std::size_t pending = static_cast<std::size_t>(state.range(0));
  citymesh::sim::EventQueue q;
  geo::Rng rng{7};
  std::uint64_t seq = 0;
  const double window = 2.0 / static_cast<double>(pending);
  // Prime at the equilibrium distribution (all pending within one recycling
  // window) and run one warmup lap outside the timing loop, so the measured
  // cost is the steady state.
  for (std::size_t i = 0; i < pending; ++i) q.push({rng.uniform(0.0, window), seq++, 0});
  const auto hold_op = [&] {
    citymesh::sim::EventQueue::Node ev = q.top();
    q.pop();
    ev.time += rng.uniform(0.0, window) + 1e-6;
    ev.seq = seq++;
    q.push(ev);
  };
  for (std::size_t i = 0; i < pending; ++i) hold_op();
  for (auto _ : state) hold_op();
  // Probe lap: 2N ops timed one by one (outside the benchmark loop, so the
  // clock reads never distort the ns/op figure); 2N recycles the whole
  // pending set at least once.
  double max_ns = 0.0;
  for (std::size_t i = 0; i < 2 * pending; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    hold_op();
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    max_ns = std::max(max_ns, ns);
  }
  state.counters["max_op_ns"] = benchmark::Counter(max_ns);
  const std::string key = "hold_max_ns." + std::to_string(pending);
  g_hold_max_ns[key] = std::max(g_hold_max_ns[key], max_ns);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerHold)->Arg(1'000)->Arg(10'000)->Arg(100'000)->Arg(1'000'000);

// One broadcast through the medium fan-out (one batch node per
// transmission, advanced in place per reception) on a degree-10 star.
static void BM_MediumFanout(benchmark::State& state) {
  graphx::GraphBuilder b{11};
  for (graphx::VertexId v = 1; v <= 10; ++v) b.add_edge(0, v, 30.0 + v);
  const graphx::Graph topo = b.build();
  struct P {
    std::uint32_t id;
  };
  for (auto _ : state) {
    citymesh::sim::Simulator s;
    citymesh::sim::MediumConfig cfg;
    cfg.jitter_s = 0.0;
    citymesh::testkit::TestMedium<P> medium{s, topo, cfg};
    std::size_t seen = 0;
    medium.set_delivery_handler(
        [&seen](citymesh::sim::NodeId, citymesh::sim::NodeId,
                const std::shared_ptr<const P>&) { ++seen; });
    const auto packet = std::make_shared<const P>(P{1});
    for (int i = 0; i < 100; ++i) {
      s.schedule_at(static_cast<double>(i) * 1e-3,
                    [&medium, packet] { medium.transmit(0, packet); });
    }
    s.run();
    benchmark::DoNotOptimize(seen);
  }
  state.SetItemsProcessed(state.iterations() * 1000);  // 100 tx x 10 receptions
}
BENCHMARK(BM_MediumFanout)->Unit(benchmark::kMillisecond);

namespace {

/// fig10's metro-xxl rung (its city and placement): the AP graph the
/// network's medium fans out over, ids only.
const citymesh::mesh::ApNetwork& metro_xxl_aps() {
  static const citymesh::mesh::ApNetwork net = [] {
    osmx::CityProfile p;
    p.name = "metro-xxl";
    p.width_m = 4200;
    p.height_m = 3100;
    p.seed = 101;
    citymesh::mesh::PlacementConfig placement;
    placement.seed = 7;
    placement.density_per_m2 = 1.0 / 60.0;
    return citymesh::mesh::place_aps(osmx::generate_city(p), placement);
  }();
  return net;
}

/// A medium owner that answers a link's length as the network's shard
/// does, from the AP positions, and otherwise as a pristine medium.
struct PositionOwner {
  using NodeId = citymesh::sim::NodeId;
  const citymesh::mesh::ApNetwork* aps;

  void deliver(NodeId, NodeId, const std::shared_ptr<const int>&) {}
  bool node_up(NodeId) const { return true; }
  double link_length(NodeId from, graphx::EdgeOffset, NodeId to) const {
    return aps->link_length(from, to);
  }
  double link_loss(NodeId, NodeId) const { return 0.0; }
  std::uint32_t packet_id(const int&) const { return 0; }
  std::size_t packet_bits(const int&) const { return 0; }
  void on_air(NodeId, const int&) {}
  bool settle(NodeId, const int&, citymesh::sim::SimTime) { return false; }
  void remote_fanout(NodeId, const std::shared_ptr<const int>&, citymesh::sim::SimTime,
                     std::uint32_t) {}
};

}  // namespace

// 100 broadcasts from one real metro-xxl AP, the first whose degree is the
// graph's mean (rounded), to its neighbours: arg 0 reads each link's length
// from a weighted graph's slot (the test owner, as the weighted AP graph
// did), arg 1 from the two AP positions (the network's owner). Both walk
// the same neighbour ids, so the difference is the length's source: one
// streamed 8-byte weight against a 16-byte position gather and a sqrt.
// Items are links, so the rate reads as ns per link.
static void BM_MediumFanoutMetroXxl(benchmark::State& state) {
  const auto& net = metro_xxl_aps();
  const graphx::Topology& topology = net.graph();
  const std::size_t mean_degree = (topology.directed_edge_count() + net.ap_count() / 2) /
                                  net.ap_count();
  citymesh::mesh::ApId ap = 0;
  while (topology.degree(ap) != mean_degree) ++ap;
  // The AP's star, its links weighing their length, in neighbour order.
  graphx::GraphBuilder builder{net.ap_count()};
  for (const graphx::VertexId to : topology.neighbors(ap)) {
    builder.add_edge(ap, to, net.link_length(ap, to));
  }
  const graphx::Graph star = builder.build();
  citymesh::sim::MediumConfig cfg;
  cfg.jitter_s = 0.0;
  const auto packet = std::make_shared<const int>(1);
  // One simulator and medium for the whole run: its per-AP tables span
  // every metro-xxl AP, too costly to rebuild per iteration.
  citymesh::sim::Simulator s;
  const auto run = [&](auto& medium) {
    for (auto _ : state) {
      const double t0 = s.now();
      for (int i = 0; i < 100; ++i) {
        s.schedule_at(t0 + static_cast<double>(i) * 1e-3,
                      [&medium, packet, ap] { medium.transmit(ap, packet); });
      }
      s.run();
    }
    benchmark::DoNotOptimize(medium.deliveries());
  };
  if (state.range(0) == 0) {
    citymesh::testkit::TestMedium<int> medium{s, star, cfg};
    run(medium);
  } else {
    PositionOwner owner{&net};
    citymesh::sim::BroadcastMedium<int, PositionOwner> medium{s, star, cfg, owner};
    run(medium);
  }
  state.SetLabel("AP " + std::to_string(ap) + ", degree " + std::to_string(mean_degree));
  state.SetItemsProcessed(state.iterations() * 100 * static_cast<std::int64_t>(mean_degree));
}
BENCHMARK(BM_MediumFanoutMetroXxl)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// One fan-out's reception latencies into the medium's latency histogram
// (its bounds and 2^-30 s sum quantum): per value through record() (0), or
// through the HistogramTally the medium keeps, flushed once (1). 50
// receptions, metro-tiled's deliveries per transmission in its committed
// perf row (5,869,079 over 117,753), each its ~11.9 ms airtime plus up to
// 2 ms of jitter (MediumConfig::jitter_s).
static void BM_HistogramTally(benchmark::State& state) {
  citymesh::obsx::Histogram hist{citymesh::obsx::exponential_buckets(1e-4, 4.0, 10)};
  hist.set_sum_quantum(0x1p-30);
  geo::Rng rng{11};
  std::vector<double> delays;
  for (int i = 0; i < 50; ++i) delays.push_back(11.9e-3 + rng.uniform(0.0, 2e-3));
  citymesh::obsx::HistogramTally tally;
  tally.bind(&hist);
  const bool tallied = state.range(0) == 1;
  for (auto _ : state) {
    if (tallied) {
      for (const double d : delays) tally.add(d);
      tally.flush();
    } else {
      for (const double d : delays) hist.record(d);
    }
    benchmark::DoNotOptimize(hist.total());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(delays.size()));
}
BENCHMARK(BM_HistogramTally)->Arg(0)->Arg(1);

// --------------------------------------------------------------- shardx ---

// The per-barrier handoff exchange primitive the tiled engine (src/shardx +
// core::CityMeshNetwork::run_tiled) pays per cross-tile reception: sort the
// drained outboxes into the deterministic (time, src_tile, seq) ingestion
// order, then schedule each into the destination tile's simulator without
// touching the latency histogram. Bounds the cost of chatty tile cuts.
static void BM_ShardxHandoffEnqueue(benchmark::State& state) {
  constexpr std::size_t kBatch = 512;
  struct Handoff {
    double time_s;
    std::uint32_t src_tile;
    std::uint64_t seq;
  };
  geo::Rng rng{11};
  std::vector<Handoff> outbox;
  for (std::size_t i = 0; i < kBatch; ++i) {
    outbox.push_back({1.0 + rng.uniform(0.0, 1e-3),
                      static_cast<std::uint32_t>(rng.uniform_int(8)), i});
  }
  std::vector<Handoff> batch;
  for (auto _ : state) {
    citymesh::sim::Simulator dst;
    batch = outbox;
    std::sort(batch.begin(), batch.end(), [](const Handoff& a, const Handoff& b) {
      if (a.time_s != b.time_s) return a.time_s < b.time_s;
      if (a.src_tile != b.src_tile) return a.src_tile < b.src_tile;
      return a.seq < b.seq;
    });
    for (const auto& h : batch) dst.schedule_at_unrecorded(h.time_s, [] {});
    benchmark::DoNotOptimize(dst.next_time());
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_ShardxHandoffEnqueue);

// Tiling + lookahead-window computation for a real city: the one-time setup
// price of the tiled engine (grid partition, cut-edge enumeration, min cut
// delay). Paid once per network construction, amortized over the whole run.
static void BM_ShardxPlanAndLookahead(benchmark::State& state) {
  const core::BuildingGraph& map = boston_map();
  const auto& net = boston_aps();
  const std::size_t shards = static_cast<std::size_t>(state.range(0));
  std::size_t cuts = 0;
  for (auto _ : state) {
    const auto plan = citymesh::shardx::plan_tiles(
        map.centroid_grid(), map.building_count(), net, shards);
    cuts = plan.cross.size();
    benchmark::DoNotOptimize(
        citymesh::shardx::lookahead_s(plan.cross, 1e-3, 3.34e-9));
  }
  state.SetLabel(std::to_string(cuts) + " cut edges");
}
BENCHMARK(BM_ShardxPlanAndLookahead)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

// -------------------------------------------------------------- traffic ---

static void BM_FlowScheduleCompile(benchmark::State& state) {
  citymesh::trafficx::WorkloadSpec spec;
  spec.seed = 9;
  spec.duration_s = 20.0;
  spec.rate_per_s = 64.0;
  spec.spatial = citymesh::trafficx::SpatialMode::kHotspot;
  std::size_t flows = 0;
  for (auto _ : state) {
    const auto schedule = citymesh::trafficx::compile(spec, boston());
    flows = schedule.flows.size();
    benchmark::DoNotOptimize(schedule.digest());
  }
  state.SetLabel(std::to_string(flows) + " flows");
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_FlowScheduleCompile)->Unit(benchmark::kMillisecond);

// The per-packet cost a saturated AP pays: a transmit that finds the channel
// busy takes the deferral fast path (queue push, no event scheduled). The
// drain at the end amortizes the completion/fan-out machinery over the batch.
static void BM_MediumBusyChannelDefer(benchmark::State& state) {
  using Medium = citymesh::testkit::TestMedium<int>;
  constexpr int kBatch = 64;
  citymesh::graphx::GraphBuilder builder{2};
  builder.add_edge(0, 1, 10.0);
  const citymesh::graphx::Graph topology = builder.build();
  citymesh::sim::MediumConfig config;
  config.prop_delay_s_per_m = 0.0;
  config.jitter_s = 0.0;
  config.bitrate_bps = 1e6;
  config.frame_overhead_bits = 1000;
  config.tx_queue_capacity = kBatch;
  const auto packet = std::make_shared<const int>(7);
  for (auto _ : state) {
    citymesh::sim::Simulator s;
    Medium medium{s, topology, config};
    // First transmit claims the channel; the rest hit the busy path.
    for (int i = 0; i < kBatch; ++i) medium.transmit(0, packet);
    s.run();
    benchmark::DoNotOptimize(medium.deferrals());
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_MediumBusyChannelDefer);

// ----------------------------------------------------------------- runx ---

namespace {

// A small town keeps the compile benches fast while still exercising the
// full citygen -> building graph -> AP placement pipeline.
osmx::CityProfile cache_bench_profile() {
  osmx::CityProfile p;
  p.name = "cache-bench-town";
  p.width_m = 800;
  p.height_m = 800;
  p.seed = 17;
  return p;
}

}  // namespace

// Cold compile: the price every grid point of a sweep would pay without the
// shared compiled-city cache.
static void BM_CityCacheColdCompile(benchmark::State& state) {
  const auto profile = cache_bench_profile();
  for (auto _ : state) {
    citymesh::runx::CityCache cache;
    benchmark::DoNotOptimize(cache.get(profile, {}));
  }
}
BENCHMARK(BM_CityCacheColdCompile)->Unit(benchmark::kMillisecond);

// Cache hit: the lookup every subsequent same-city grid point pays instead.
static void BM_CityCacheHit(benchmark::State& state) {
  const auto profile = cache_bench_profile();
  citymesh::runx::CityCache cache;
  cache.get(profile, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.get(profile, {}));
  }
}
BENCHMARK(BM_CityCacheHit);

// Engine dispatch overhead: 256 no-op jobs, so the measured cost is grid
// setup + the atomic work cursor + the index-order merge fold (plus thread
// spawn/join at arg > 1). Real runs amortize this over seconds of
// simulation per job.
static void BM_RunxDispatch(benchmark::State& state) {
  constexpr std::size_t kJobs = 256;
  const citymesh::runx::RunFn noop = [](const citymesh::runx::RunJob& job) {
    citymesh::runx::RunResult r;
    r.cells = {std::to_string(job.index)};
    return r;
  };
  const std::size_t workers = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    std::vector<citymesh::runx::RunJob> grid(kJobs);
    const auto report = citymesh::runx::run_jobs(std::move(grid), noop, {workers});
    benchmark::DoNotOptimize(report.digest);
  }
  state.SetItemsProcessed(state.iterations() * kJobs);
}
BENCHMARK(BM_RunxDispatch)->Arg(1)->Arg(4);

// --------------------------------------------------------------- crypto ---

static void BM_Sha256_1KiB(benchmark::State& state) {
  std::vector<std::uint8_t> data(1024, 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cryptox::Sha256::hash(data));
  }
  state.SetBytesProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_Sha256_1KiB);

static void BM_ChaCha20_1KiB(benchmark::State& state) {
  const cryptox::ChaChaKey key{1, 2, 3};
  const cryptox::ChaChaNonce nonce{4, 5};
  std::vector<std::uint8_t> data(1024, 0xa5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cryptox::chacha20_xor(key, nonce, 1, data));
  }
  state.SetBytesProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_ChaCha20_1KiB);

// Public-key derivation (x25519_base: the fixed-base Edwards table) against
// the Montgomery ladder at u = 9 it replaced.
static void BM_X25519Base(benchmark::State& state) {
  cryptox::X25519Key k{};
  k[0] = 0x42;
  cryptox::X25519Key base_u{};
  base_u[0] = 9;
  for (auto _ : state) {
    k = state.range(0) == 0 ? cryptox::x25519_base(k) : cryptox::x25519(k, base_u);
    benchmark::DoNotOptimize(k);
  }
}
BENCHMARK(BM_X25519Base)->Arg(0)->Arg(1);

// Signature verification: the windowed double-scalar multiply (Arg 0)
// against the bit-by-bit reference it replaced (Arg 1).
static void BM_Ed25519Verify(benchmark::State& state) {
  const auto kp = cryptox::Ed25519KeyPair::from_seed(3);
  const std::string msg(128, 'b');
  const auto sig = kp.sign(msg);
  const std::span<const std::uint8_t> bytes{reinterpret_cast<const std::uint8_t*>(msg.data()),
                                            msg.size()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(state.range(0) == 0
                                 ? cryptox::ed25519_verify(kp.public_key(), bytes, sig)
                                 : cryptox::ed25519_verify_reference(kp.public_key(), bytes, sig));
  }
}
BENCHMARK(BM_Ed25519Verify)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

static void BM_X25519SharedSecret(benchmark::State& state) {
  const auto a = cryptox::KeyPair::from_seed(1);
  const auto b = cryptox::KeyPair::from_seed(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.shared_secret(b.public_key()));
  }
}
BENCHMARK(BM_X25519SharedSecret);

static void BM_SealUnseal(benchmark::State& state) {
  const auto alice = cryptox::KeyPair::from_seed(1);
  const auto bob = cryptox::KeyPair::from_seed(2);
  const std::string msg(256, 'm');
  std::uint64_t seed = 0;
  for (auto _ : state) {
    const auto sealed = cryptox::seal(alice, bob.public_key(), msg, ++seed);
    benchmark::DoNotOptimize(cryptox::unseal(bob, sealed));
  }
}
BENCHMARK(BM_SealUnseal);

// Custom main instead of benchmark_main: the ManifestEmitter peels its
// --json flag off argv before google-benchmark sees (and rejects) it.
int main(int argc, char** argv) {
  citymesh::benchutil::ManifestEmitter emit{"micro_bench", argc, argv};
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const std::size_t ran = benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Hold-model tail latencies (one param per pending-set size).
  // Machine-dependent, so they live in the manifest params, never in the
  // digest row.
  for (const auto& [key, max_ns] : g_hold_max_ns) {
    emit.manifest().set_param(key, max_ns);
  }
  emit.manifest().set_param("benchmarks_run", static_cast<std::uint64_t>(ran));
  emit.row(std::to_string(ran));
  return emit.finish();
}
