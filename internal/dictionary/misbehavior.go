package dictionary

import (
	"crypto/ed25519"
	"errors"
	"fmt"

	"ritm/internal/serial"
	"ritm/internal/wire"
)

// Misbehavior errors.
var (
	// ErrNoMisbehavior reports that two roots are consistent with an honest CA.
	ErrNoMisbehavior = errors.New("dictionary: roots are consistent")
	// ErrBadMisbehaviorProof reports a proof that does not demonstrate
	// misbehavior (bad signatures, different CAs, or equal roots).
	ErrBadMisbehaviorProof = errors.New("dictionary: invalid misbehavior proof")
)

// MisbehaviorProof is cryptographic evidence that a CA equivocated: two
// validly signed roots for the same dictionary size n with different root
// hashes (§V "Misbehaving CA"). Because dictionaries are append-only and
// revocation numbers are consecutive, an honest CA signs exactly one root
// per size, so such a pair is transferable proof of misbehavior that can be
// reported, for example, to software vendors (§III).
type MisbehaviorProof struct {
	A, B *SignedRoot
}

// CheckEquivocation compares two signed roots from (purportedly) the same
// CA. It returns a MisbehaviorProof if they demonstrate equivocation, and
// ErrNoMisbehavior if they are mutually consistent. Roots of different
// sizes are not comparable by this check alone (see VerifyPrefix for that
// case) and report no misbehavior.
func CheckEquivocation(a, b *SignedRoot, pub ed25519.PublicKey) (*MisbehaviorProof, error) {
	if a == nil || b == nil {
		return nil, fmt.Errorf("dictionary: nil signed root")
	}
	if a.CA != b.CA {
		return nil, fmt.Errorf("dictionary: roots from different CAs (%s, %s)", a.CA, b.CA)
	}
	if err := a.VerifySignature(pub); err != nil {
		return nil, err
	}
	if err := b.VerifySignature(pub); err != nil {
		return nil, err
	}
	if a.N != b.N || a.Root.Equal(b.Root) {
		return nil, ErrNoMisbehavior
	}
	return &MisbehaviorProof{A: a, B: b}, nil
}

// Verify checks the proof end-to-end under the CA public key, so that a
// third party that receives a reported proof can validate it independently.
func (m *MisbehaviorProof) Verify(pub ed25519.PublicKey) error {
	if m == nil || m.A == nil || m.B == nil {
		return fmt.Errorf("%w: incomplete proof", ErrBadMisbehaviorProof)
	}
	proof, err := CheckEquivocation(m.A, m.B, pub)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadMisbehaviorProof, err)
	}
	_ = proof
	return nil
}

// Encode serializes the proof for reporting.
func (m *MisbehaviorProof) Encode() []byte {
	e := wire.NewEncoder(512)
	m.A.encodeTo(e)
	m.B.encodeTo(e)
	return e.Bytes()
}

// DecodeMisbehaviorProof parses a proof encoded by Encode.
func DecodeMisbehaviorProof(buf []byte) (*MisbehaviorProof, error) {
	d := wire.NewDecoder(buf)
	a, err := decodeSignedRootFrom(d)
	if err != nil {
		return nil, err
	}
	b, err := decodeSignedRootFrom(d)
	if err != nil {
		return nil, err
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("decode misbehavior proof: %w", err)
	}
	return &MisbehaviorProof{A: a, B: b}, nil
}

// VerifyPrefix checks an older root against a newer root using the full
// issuance log held by a replica: replaying the first a.N insertions must
// reproduce a.Root, and replaying all b.N must reproduce b.Root. A failure
// means the CA violated the append-only property between the two versions
// (revocations were reordered, deleted, or rewritten); the replica's log
// plus the two signed roots then constitute the evidence. The returned
// error is nil when the roots are prefix-consistent.
func VerifyPrefix(log []serial.Number, a, b *SignedRoot, pub ed25519.PublicKey) error {
	if a.N > b.N {
		a, b = b, a
	}
	if err := a.VerifySignature(pub); err != nil {
		return err
	}
	if err := b.VerifySignature(pub); err != nil {
		return err
	}
	if uint64(len(log)) < b.N {
		return fmt.Errorf("%w: log has %d entries, roots cover %d", ErrDesynchronized, len(log), b.N)
	}
	tree := NewTree()
	if err := tree.InsertBatch(log[:a.N]); err != nil {
		return fmt.Errorf("replay prefix: %w", err)
	}
	if !tree.Root().Equal(a.Root) {
		return fmt.Errorf("%w: prefix of size %d does not reproduce older root", ErrRootMismatch, a.N)
	}
	if err := tree.InsertBatch(log[a.N:b.N]); err != nil {
		return fmt.Errorf("replay suffix: %w", err)
	}
	if !tree.Root().Equal(b.Root) {
		return fmt.Errorf("%w: log of size %d does not reproduce newer root", ErrRootMismatch, b.N)
	}
	return nil
}
