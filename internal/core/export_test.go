package core

// MuxDataConn is the data channel of the control/data mux over raw: what
// assemble wraps the negotiated stack around. The transform contract and
// fuzz tests drive it beside the chunnels' transforms.
func MuxDataConn(raw Conn) Conn { return newTaggedConn(raw).dataConn() }

// MuxDroppedCounter is the mux's decode_dropped counter name.
const MuxDroppedCounter = muxDroppedCounter
