#include "net/message.h"

namespace sigma::net {

const char* to_string(MessageType type) {
  switch (type) {
    case MessageType::kDuplicateTest:
      return "DuplicateTest";
    case MessageType::kWriteSuperChunk:
      return "WriteSuperChunk";
    case MessageType::kReadChunk:
      return "ReadChunk";
    case MessageType::kStoredBytes:
      return "StoredBytes";
    case MessageType::kFlush:
      return "Flush";
    case MessageType::kRoutingProbe:
      return "RoutingProbe";
    case MessageType::kStatsSnapshot:
      return "StatsSnapshot";
    case MessageType::kTraceDump:
      return "TraceDump";
    case MessageType::kRegisterNode:
      return "RegisterNode";
    case MessageType::kRegistryHeartbeat:
      return "RegistryHeartbeat";
    case MessageType::kRegistryLeave:
      return "RegistryLeave";
    case MessageType::kFleetFetch:
      return "FleetFetch";
  }
  return "?";
}

}  // namespace sigma::net
