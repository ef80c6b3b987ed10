package ra

import (
	"fmt"
	"sync"

	"ritm/internal/dictionary"
	"ritm/internal/serial"
)

// Stage is the DPI view of a TLS connection's progress, the stage field of
// Eq (4).
type Stage int

// Connection stages, in protocol order.
const (
	// StageClientHello: the RITM extension was seen; awaiting ServerHello.
	StageClientHello Stage = iota + 1
	// StageServerHello: ServerHello seen; awaiting certificate (full
	// handshake) or Finished (abbreviated).
	StageServerHello
	// StageEstablished: the server's Finished was seen; periodic status
	// refresh applies (§III step 6).
	StageEstablished
)

// String names the stage.
func (s Stage) String() string {
	switch s {
	case StageClientHello:
		return "ClientHello"
	case StageServerHello:
		return "ServerHello"
	case StageEstablished:
		return "established"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// FourTuple identifies a connection: source/destination IP and port, the
// sIP/sPort/dIP/dPort of Eq (4). Addresses are kept as strings (the
// net.Addr representation) because the table only needs equality.
type FourTuple struct {
	SrcIP   string
	SrcPort string
	DstIP   string
	DstPort string
}

// String formats the tuple for logs.
func (ft FourTuple) String() string {
	return fmt.Sprintf("%s:%s→%s:%s", ft.SrcIP, ft.SrcPort, ft.DstIP, ft.DstPort)
}

// ConnState is the live Eq (4) state an RA keeps per supported connection:
//
//	sIP, dIP, sPort, dPort, lastStatus, stage, CA, SN
//
// The four-tuple is the connection's key in the Table. lastStatus is the
// Unix time the last revocation status was sent to the client (0 until the
// first one); ca selects the dictionary; sn is the server certificate's
// serial number. The proxy's data-path goroutines mutate it.
type ConnState struct {
	mu         sync.Mutex
	lastStatus int64
	stage      Stage
	ca         dictionary.CAID
	sn         serial.Number
}

// setStage advances the handshake stage.
func (cs *ConnState) setStage(s Stage) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.stage = s
}

// setIdentity records the certificate identity once known (Fig 3 step 4).
func (cs *ConnState) setIdentity(ca dictionary.CAID, sn serial.Number) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.ca = ca
	cs.sn = sn
}

// identity returns the recorded CA and serial ("" CA until known).
func (cs *ConnState) identity() (dictionary.CAID, serial.Number) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.ca, cs.sn
}

// markStatus records that a status was delivered at Unix time now.
func (cs *ConnState) markStatus(now int64) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.lastStatus = now
}

// needsStatus reports whether a fresh status is due: the connection is
// established, identified, and ∆ has passed since lastStatus (§III step 6:
// time() − lastStatus ≥ ∆).
func (cs *ConnState) needsStatus(now, deltaSecs int64) bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.stage == StageEstablished && cs.ca != "" &&
		now-cs.lastStatus >= deltaSecs
}

// Table is the RA's DPI connection table, mapping four-tuples to states.
// It is safe for concurrent use.
type Table struct {
	mu    sync.RWMutex
	conns map[FourTuple]*ConnState
}

// NewTable creates an empty connection table.
func NewTable() *Table {
	return &Table{conns: make(map[FourTuple]*ConnState)}
}

// Create inserts the initial state for a new supported connection (Fig 3:
// stage=ClientHello, lastStatus=0, CA=∅, SN=∅). It replaces any stale entry
// for the same tuple (a previous connection on reused ports).
func (t *Table) Create(tuple FourTuple) *ConnState {
	cs := &ConnState{stage: StageClientHello}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.conns[tuple] = cs
	return cs
}

// Remove drops a connection's state (connection finished or timed out,
// §III: "the RA removes the corresponding state").
func (t *Table) Remove(tuple FourTuple) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.conns, tuple)
}
