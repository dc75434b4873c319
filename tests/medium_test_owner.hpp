// The test owner of sim::BroadcastMedium: every hook is an optional
// std::function a test installs with the setter of the same name, and an
// unset hook answers as a pristine medium would (all nodes up, no extra
// loss, no settling, nothing else attached). A link's length is the weight
// of its slot in the test's weighted graph, so a test sets delays with
// arbitrary weights, not positions. TestMedium<Packet> is a medium that
// owns its hooks, so a test writes
//
//   TestMedium<Packet> medium{sim, topology, config};
//   medium.set_delivery_handler([&](NodeId to, NodeId from, const auto& p) {...});
//
// The library's owner (core::CityMeshNetwork's shard) calls its hooks
// directly; this one exists so that tests and micro_bench can drive the
// medium with closures.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "sim/medium.hpp"

namespace citymesh::testkit {

template <typename Packet>
class MediumHooks {
 public:
  /// `lengths` gives each directed link's length (its slot weight) and
  /// must outlive the hooks.
  explicit MediumHooks(const graphx::Graph& lengths) : lengths_(&lengths) {}

  using NodeId = sim::NodeId;
  using DeliveryFn = std::function<void(NodeId to, NodeId from,
                                        const std::shared_ptr<const Packet>&)>;
  using NodeUpFn = std::function<bool(NodeId)>;
  using LinkLossFn = std::function<double(NodeId from, NodeId to)>;
  using PacketIdFn = std::function<std::uint32_t(const Packet&)>;
  using PacketBitsFn = std::function<std::size_t(const Packet&)>;
  using SettleFn = std::function<bool(NodeId to, const Packet&, sim::SimTime at)>;

  void set_delivery_handler(DeliveryFn fn) { deliver_ = std::move(fn); }
  void set_node_filter(NodeUpFn fn) { node_up_ = std::move(fn); }
  void set_link_loss(LinkLossFn fn) { link_loss_ = std::move(fn); }
  void set_packet_bits(PacketBitsFn fn) { packet_bits_ = std::move(fn); }
  void set_duplicate_settler(SettleFn fn) { settle_ = std::move(fn); }

  // --- The owner interface (sim/medium.hpp) -------------------------------
  void deliver(NodeId to, NodeId from, const std::shared_ptr<const Packet>& packet) {
    if (deliver_) deliver_(to, from, packet);
  }
  bool node_up(NodeId node) const { return !node_up_ || node_up_(node); }
  double link_length(NodeId, graphx::EdgeOffset slot, NodeId) const {
    return lengths_->weight(slot);
  }
  double link_loss(NodeId from, NodeId to) const { return link_loss_ ? link_loss_(from, to) : 0.0; }
  std::uint32_t packet_id(const Packet& packet) const {
    return packet_id_ ? packet_id_(packet) : 0;
  }
  std::size_t packet_bits(const Packet& packet) const {
    return packet_bits_ ? packet_bits_(packet) : 0;
  }
  void on_air(NodeId, const Packet&) {}
  bool settle(NodeId to, const Packet& packet, sim::SimTime at) {
    return settle_ && settle_(to, packet, at);
  }
  void remote_fanout(NodeId, const std::shared_ptr<const Packet>&, sim::SimTime,
                     std::uint32_t) {}

 protected:
  PacketIdFn packet_id_;

 private:
  const graphx::Graph* lengths_;
  DeliveryFn deliver_;
  NodeUpFn node_up_;
  LinkLossFn link_loss_;
  PacketBitsFn packet_bits_;
  SettleFn settle_;
};

/// A medium owning its test hooks (the hooks are constructed first).
template <typename Packet>
class TestMedium : public MediumHooks<Packet>,
                   public sim::BroadcastMedium<Packet, MediumHooks<Packet>> {
  using Medium = sim::BroadcastMedium<Packet, MediumHooks<Packet>>;

 public:
  TestMedium(sim::Simulator& simulator, const graphx::Graph& topology,
             sim::MediumConfig config)
      : MediumHooks<Packet>(topology),
        Medium(simulator, topology, config, static_cast<MediumHooks<Packet>&>(*this)) {}

  using Medium::node_up;

  /// Attach a trace buffer; `id_fn` gives each event's packet id.
  void set_trace(obsx::TraceBuffer* trace,
                 typename MediumHooks<Packet>::PacketIdFn id_fn = nullptr) {
    this->packet_id_ = std::move(id_fn);
    Medium::set_trace(trace);
  }
};

}  // namespace citymesh::testkit
