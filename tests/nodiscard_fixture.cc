// Compile-only fixture for the [[nodiscard]] contract of AF_NODISCARD
// (src/util/attributes.h). Two ctests compile it with `-fsyntax-only
// -Werror=unused-result` (tests/CMakeLists.txt): as written it stores or
// (void)-casts every result and must compile; with AIRFAIR_DISCARD_RESULT
// defined it drops an EventLoop::ScheduleAfter and a PacketPool::Allocate
// result and must fail with the compiler's unused-result diagnostic. It is
// never linked or run.

#include "src/net/packet_pool.h"
#include "src/sim/event_loop.h"

namespace airfair {

void ConsumeEveryResult(EventLoop& loop, PacketPool& pool) {
  EventHandle handle = loop.ScheduleAfter(TimeUs::FromMicroseconds(1), [] {});
  handle.Cancel();
  (void)loop.ScheduleAfter(TimeUs::FromMicroseconds(2), [] {});
  PacketPtr packet = pool.Allocate();
  packet.reset();
  (void)pool.Allocate();
#ifdef AIRFAIR_DISCARD_RESULT
  loop.ScheduleAfter(TimeUs::FromMicroseconds(3), [] {});
  pool.Allocate();
#endif
}

}  // namespace airfair
