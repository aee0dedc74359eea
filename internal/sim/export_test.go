package sim

import "repro/countq"

// BridgeProtos returns the ProtoMaker behind each registered sim-* bridge,
// by structure name; nil stands for the central protocol.
func BridgeProtos() map[string]ProtoMaker { return bridgeProtos }

// SessionNode returns the node a bridge session is pinned to.
func SessionNode(s countq.Session) int { return s.(*bridgeSession).node }
