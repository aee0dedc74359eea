package sim

// BridgeProtos returns the ProtoMaker behind each registered sim-* bridge,
// by structure name; nil stands for the central protocol.
func BridgeProtos() map[string]ProtoMaker { return bridgeProtos }
