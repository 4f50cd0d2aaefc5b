#include "src/aqm/fq_codel.h"

#include <string>
#include <utility>

#include "src/util/check.h"

namespace airfair {

FqCodelQdisc::FqCodelQdisc(InlineFunction<TimeUs()> clock, const FqCodelConfig& config)
    : config_(config),
      queues_(std::move(clock), config.flows, config.quantum_bytes, config.hash_perturbation,
              FlowQueueSet::TieBreak::kQueueIndex) {
  // A limit below 1 would drop from an empty set forever.
  AF_CHECK_GE(config.limit_packets, 1) << " FqCodelConfig::limit_packets";
}

void FqCodelQdisc::Enqueue(PacketPtr packet) {
  queues_.Push(tin_, std::move(packet));
  while (queues_.packet_count() > config_.limit_packets) {
    queues_.DropFattest();
  }
}

PacketPtr FqCodelQdisc::Dequeue() { return queues_.Dequeue(tin_, config_.codel); }

int FqCodelQdisc::CheckInvariants(AuditFailFn fail) const {
  return queues_.CheckInvariants([this](FlowQueueSet::TinVisitor visit) { visit(tin_); },
                                 [&](const std::string& message) { fail("fq_codel: " + message); });
}

}  // namespace airfair
