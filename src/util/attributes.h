// Portable spelling of compiler attributes used across the tree.
//
// AF_NODISCARD marks functions whose return value *is* the point of calling
// them — a dropped EventHandle silently degrades a cancellable timer into a
// detached post (EventHandle destruction does not cancel), and a dropped
// PacketPtr returns a packet to the pool the instant it was allocated. The
// macro expands to [[nodiscard]], so the compiler flags discards in every
// build and -Werror turns them into errors; tests/nodiscard_fixture.cc
// proves that under ctest. Cast to (void) to discard on purpose.

#ifndef AIRFAIR_SRC_UTIL_ATTRIBUTES_H_
#define AIRFAIR_SRC_UTIL_ATTRIBUTES_H_

#define AF_NODISCARD [[nodiscard]]

#endif  // AIRFAIR_SRC_UTIL_ATTRIBUTES_H_
