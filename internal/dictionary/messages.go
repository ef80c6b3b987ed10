package dictionary

import (
	"crypto/ed25519"
	"fmt"
	"time"

	"ritm/internal/cryptoutil"
	"ritm/internal/serial"
	"ritm/internal/wire"
)

// CAID identifies a certification authority (and therefore one dictionary)
// across the whole system: in certificates, signed roots, and the
// dissemination API.
type CAID string

// signedRootContext domain-separates root signatures from any other Ed25519
// use of a CA key (for example certificate issuance).
const signedRootContext = "RITM/signed-root/v1"

// SignedRoot is the CA's commitment to one version of its dictionary,
// Eq (1) of the paper: {root, n, Hᵐ(v), t} signed with the CA's private
// key. The chain length m and the CA's ∆ are carried alongside so that a
// verifier can evaluate freshness with no out-of-band configuration; both
// are covered by the signature.
type SignedRoot struct {
	CA        CAID
	Root      cryptoutil.Hash
	N         uint64          // number of revocations in this version
	Anchor    cryptoutil.Hash // Hᵐ(v), the freshness-chain anchor
	Time      int64           // Unix seconds at signing, the t of Eq (1)
	ChainLen  uint32          // m, the freshness-chain length
	DeltaSecs uint32          // the CA's dissemination interval ∆ in seconds
	Signature []byte
}

// Delta returns the CA's dissemination interval.
func (r *SignedRoot) Delta() time.Duration {
	return time.Duration(r.DeltaSecs) * time.Second
}

// signingPayload returns the bytes covered by the signature.
func (r *SignedRoot) signingPayload() []byte {
	e := wire.NewEncoder(128)
	e.String(signedRootContext)
	e.String(string(r.CA))
	e.Raw(r.Root[:])
	e.Uvarint(r.N)
	e.Raw(r.Anchor[:])
	e.Int64(r.Time)
	e.Uint32(r.ChainLen)
	e.Uint32(r.DeltaSecs)
	return e.Bytes()
}

// sign populates the signature using the CA's signer.
func (r *SignedRoot) sign(signer *cryptoutil.Signer) {
	r.Signature = signer.Sign(r.signingPayload())
}

// VerifySignature checks the root's signature under the CA public key.
func (r *SignedRoot) VerifySignature(pub ed25519.PublicKey) error {
	return r.verifySignature(pub, cryptoutil.Verify)
}

func (r *SignedRoot) verifySignature(pub ed25519.PublicKey, verify VerifyFunc) error {
	if err := verify(pub, r.signingPayload(), r.Signature); err != nil {
		return fmt.Errorf("signed root for %s: %w", r.CA, err)
	}
	return nil
}

// Period returns p = ⌊(now − t)/∆⌋, the freshness period index at time now
// (Fig 2, refresh step 1). A non-positive ∆ or a time before t yields 0.
func (r *SignedRoot) Period(now int64) int {
	if r.DeltaSecs == 0 || now <= r.Time {
		return 0
	}
	return int((now - r.Time) / int64(r.DeltaSecs))
}

// NextPeriod returns when the period after the one now falls in begins on
// the root's grid: t + (p+1)∆ for p = Period(now). The CA publishes the
// statement for that period then, and the RA schedules its pulls from it.
// A root with ∆ = 0 has no grid; its next period is its own time t.
func (r *SignedRoot) NextPeriod(now time.Time) time.Time {
	return time.Unix(r.Time+int64(r.Period(now.Unix())+1)*int64(r.DeltaSecs), 0)
}

// Equal reports whether two signed roots commit to the same dictionary
// version (all signed fields equal; signatures may differ only if a CA
// signs twice, which Ed25519's determinism prevents in practice).
func (r *SignedRoot) Equal(other *SignedRoot) bool {
	if r == nil || other == nil {
		return r == other
	}
	return r.CA == other.CA && r.Root == other.Root && r.N == other.N &&
		r.Anchor == other.Anchor && r.Time == other.Time &&
		r.ChainLen == other.ChainLen && r.DeltaSecs == other.DeltaSecs
}

// Encode serializes the signed root including its signature.
func (r *SignedRoot) Encode() []byte {
	e := wire.NewEncoder(192)
	r.encodeTo(e)
	return e.Bytes()
}

func (r *SignedRoot) encodeTo(e *wire.Encoder) {
	e.String(string(r.CA))
	e.Raw(r.Root[:])
	e.Uvarint(r.N)
	e.Raw(r.Anchor[:])
	e.Int64(r.Time)
	e.Uint32(r.ChainLen)
	e.Uint32(r.DeltaSecs)
	e.BytesField(r.Signature)
}

// DecodeSignedRoot parses a signed root encoded by Encode.
func DecodeSignedRoot(buf []byte) (*SignedRoot, error) {
	d := wire.NewDecoder(buf)
	r, err := decodeSignedRootFrom(d)
	if err != nil {
		return nil, err
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("decode signed root: %w", err)
	}
	return r, nil
}

func decodeSignedRootFrom(d *wire.Decoder) (*SignedRoot, error) {
	var r SignedRoot
	r.CA = CAID(d.String())
	root, _ := cryptoutil.HashFromBytes(d.Raw(cryptoutil.HashSize))
	r.Root = root
	r.N = d.Uvarint()
	anchor, _ := cryptoutil.HashFromBytes(d.Raw(cryptoutil.HashSize))
	r.Anchor = anchor
	r.Time = d.Int64()
	r.ChainLen = d.Uint32()
	r.DeltaSecs = d.Uint32()
	r.Signature = d.BytesCopy()
	if d.Err() != nil {
		return nil, fmt.Errorf("decode signed root: %w", d.Err())
	}
	return &r, nil
}

// FreshnessStatement is the per-∆ heartbeat of Eq (2): the hash-chain value
// H^{m−p}(v) for the current period p. It is authentic without a signature
// because only the CA can invert the chain (§III).
type FreshnessStatement struct {
	CA    CAID
	Value cryptoutil.Hash
}

// Encode serializes the statement.
func (f *FreshnessStatement) Encode() []byte {
	e := wire.NewEncoder(64)
	f.encodeTo(e)
	return e.Bytes()
}

func (f *FreshnessStatement) encodeTo(e *wire.Encoder) {
	e.String(string(f.CA))
	e.Raw(f.Value[:])
}

// DecodeFreshnessStatement parses a statement encoded by Encode.
func DecodeFreshnessStatement(buf []byte) (*FreshnessStatement, error) {
	d := wire.NewDecoder(buf)
	f, err := decodeFreshnessFrom(d)
	if err != nil {
		return nil, err
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("decode freshness statement: %w", err)
	}
	return f, nil
}

func decodeFreshnessFrom(d *wire.Decoder) (*FreshnessStatement, error) {
	var f FreshnessStatement
	f.CA = CAID(d.String())
	v, _ := cryptoutil.HashFromBytes(d.Raw(cryptoutil.HashSize))
	f.Value = v
	if d.Err() != nil {
		return nil, fmt.Errorf("decode freshness statement: %w", d.Err())
	}
	return &f, nil
}

// IssuanceMessage is what a CA sends to the distribution point when it
// revokes certificates: the new serials together with the new signed root
// (§III "Dissemination", Tab I). Replicas replay the serials and accept the
// message only if their rebuilt root matches.
type IssuanceMessage struct {
	Serials []serial.Number
	Root    *SignedRoot
	// built offers the tree the authority rebuilt for this message to a
	// replica in the same process (see Replica.Update). Only
	// Authority.Insert sets it, and no encoding carries it: a message that
	// crossed a wire or a log is replayed.
	built *builtRun
}

// Encode serializes the issuance message.
func (m *IssuanceMessage) Encode() []byte {
	e := wire.NewEncoder(256 + 8*len(m.Serials))
	e.Uvarint(uint64(len(m.Serials)))
	for _, s := range m.Serials {
		e.BytesField(s.Raw())
	}
	m.Root.encodeTo(e)
	return e.Bytes()
}

// DecodeIssuanceMessage parses an issuance message encoded by Encode. The
// decoded serials own their bytes independently of buf: the whole batch is
// packed into a single arena sized off the input, so the decode costs one
// backing allocation for all serial bytes however large the batch. Paths
// whose input buffer is reused or shared must use this form (WAL replay —
// storage hands out records aliasing one shared read buffer).
func DecodeIssuanceMessage(buf []byte) (*IssuanceMessage, error) {
	return decodeIssuance(buf, false)
}

// DecodeIssuanceMessageView parses an issuance message whose serials ALIAS
// buf — zero copies of serial bytes. The caller guarantees buf is never
// modified and outlives every decoded serial; the pull-apply path
// qualifies because the PullResponse retains its body for re-encoding
// anyway, so the serials ride on bytes that already live as long as the
// message.
func DecodeIssuanceMessageView(buf []byte) (*IssuanceMessage, error) {
	return decodeIssuance(buf, true)
}

func decodeIssuance(buf []byte, view bool) (*IssuanceMessage, error) {
	d := wire.NewDecoder(buf)
	count := d.Uvarint()
	if d.Err() != nil {
		return nil, fmt.Errorf("decode issuance message: %w", d.Err())
	}
	// Sanity bounds on a single batch; every serial takes at least two bytes
	// of buf, so a count beyond its length is a lie that would otherwise size
	// the slice below.
	const maxBatch = 1 << 24
	if count > maxBatch || count > uint64(len(buf)) {
		return nil, fmt.Errorf("decode issuance message: batch of %d serials exceeds limit", count)
	}
	msg := &IssuanceMessage{Serials: make([]serial.Number, 0, count)}
	var arena []byte
	if !view {
		// Every serial is a sub-slice of buf, so len(buf) bounds their total
		// length: the arena never reallocates, and each packed serial's
		// capacity-clipped sub-slice stays valid for good.
		arena = make([]byte, 0, len(buf))
	}
	for i := uint64(0); i < count; i++ {
		b := d.BytesField()
		if !view {
			start := len(arena)
			arena = append(arena, b...)
			b = arena[start:len(arena):len(arena)]
		}
		s, err := serial.View(b)
		if err != nil {
			return nil, fmt.Errorf("decode issuance message serial %d: %w", i, err)
		}
		msg.Serials = append(msg.Serials, s)
	}
	root, err := decodeSignedRootFrom(d)
	if err != nil {
		return nil, err
	}
	msg.Root = root
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("decode issuance message: %w", err)
	}
	return msg, nil
}

// Status is the revocation status delivered to a client, Eq (3):
// proof, {root, n, Hᵐ(v), t}_signed, and the current freshness statement.
//
// Subject optionally names the certificate serial the status is about. It
// is unset for plain leaf statuses (the client knows the connection's
// certificate); chain-proof statuses (§VIII "Certificate chains") set it
// so the client can match each status to the right chain element. Subject
// is advisory routing information — the proof itself is what binds the
// serial cryptographically, and Check always verifies against the serial
// the caller supplies.
type Status struct {
	Proof     *Proof
	Root      *SignedRoot
	Freshness cryptoutil.Hash // H^{m−p}(v) for the RA's current period
	Subject   serial.Number   // optional: the certificate this is about

	// rootEnc, when non-nil, is the memoized encoding of Root. Snapshots
	// populate it (a signed root is immutable for a whole generation, so
	// one encoding serves every status proved from that snapshot), and
	// Encode splices it instead of re-encoding the root per status.
	rootEnc []byte
}

// Encode serializes the status for piggybacking on TLS traffic.
func (st *Status) Encode() []byte {
	e := wire.PooledEncoder()
	st.Proof.encodeTo(e)
	if st.rootEnc != nil {
		e.Raw(st.rootEnc)
	} else {
		st.Root.encodeTo(e)
	}
	e.Raw(st.Freshness[:])
	if st.Subject.IsZero() {
		e.Bool(false)
	} else {
		e.Bool(true)
		e.BytesField(st.Subject.Raw())
	}
	return e.Finish()
}

// DecodeStatus parses a status encoded by Encode.
func DecodeStatus(buf []byte) (*Status, error) {
	d := wire.NewDecoder(buf)
	p, err := decodeProofFrom(d)
	if err != nil {
		return nil, err
	}
	root, err := decodeSignedRootFrom(d)
	if err != nil {
		return nil, err
	}
	fresh, _ := cryptoutil.HashFromBytes(d.Raw(cryptoutil.HashSize))
	st := &Status{Proof: p, Root: root, Freshness: fresh}
	if d.Bool() {
		subject, err := serial.New(d.BytesField())
		if err != nil {
			return nil, fmt.Errorf("decode status subject: %w", err)
		}
		st.Subject = subject
	}
	if d.Err() != nil {
		return nil, fmt.Errorf("decode status: %w", d.Err())
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("decode status: %w", err)
	}
	return st, nil
}

// CheckResult is the outcome of verifying a Status.
type CheckResult int

// Check results.
const (
	// CheckValid means the certificate is proven not revoked, freshly.
	CheckValid CheckResult = iota + 1
	// CheckRevoked means the certificate is proven revoked.
	CheckRevoked
)

// Check verifies a revocation status for serial s under the CA public key
// at time now: the root signature, the proof against (root, n), and the
// freshness statement under the 2∆ policy of §III step 5c — the statement
// must hash to the anchor in p' or p'+1 steps, where p' = ⌊(now − t)/∆⌋.
//
// It returns CheckRevoked (with no error) when a valid presence proof is
// supplied: the status is authentic, and it proves revocation.
func (st *Status) Check(s serial.Number, pub ed25519.PublicKey, now int64) (CheckResult, error) {
	return st.CheckWith(s, pub, now, cryptoutil.Verify)
}

// VerifyFunc checks an Ed25519 signature as cryptoutil.Verify does.
type VerifyFunc func(pub ed25519.PublicKey, msg, sig []byte) error

// CheckWith is Check with the root signature checked by verify. A client
// passes its trust pool's memoized check (cert.Pool.Verify), so a signed
// root its connections keep carrying costs one Ed25519 verification while
// the pool remembers it; the proof and the freshness statement are checked
// every time.
func (st *Status) CheckWith(s serial.Number, pub ed25519.PublicKey, now int64, verify VerifyFunc) (CheckResult, error) {
	if st.Proof == nil || st.Root == nil {
		return 0, fmt.Errorf("%w: incomplete status", ErrBadProof)
	}
	if err := st.Root.verifySignature(pub, verify); err != nil {
		return 0, err
	}
	revoked, err := st.Proof.Verify(s, st.Root.Root, st.Root.N)
	if err != nil {
		return 0, err
	}
	if err := st.checkFreshness(now); err != nil {
		return 0, err
	}
	if revoked {
		return CheckRevoked, nil
	}
	return CheckValid, nil
}

// freshnessGap returns the gap k ∈ [1, limit] such that hashing value k
// times yields cur — i.e. value is the freshness statement exactly k
// periods newer than the currently adopted one — or 0 if no such gap
// exists. Walking the chain toward the adopted statement instead of the
// anchor both bounds the work by the period gap and accepts any genuinely
// newer statement, not just the {p, p−1} window a live pull sees:
// recovery replay and mapped readers re-validate records arbitrarily
// later than the writer adopted them, and dropping an old-but-genuine
// value there freezes freshness at the checkpoint's period. Adoption
// stays monotonic (k ≥ 1 is strictly newer); the 2∆ staleness *policy*
// is enforced where it belongs, at Status.Check.
func freshnessGap(value, cur cryptoutil.Hash, limit int) int {
	if limit <= 0 || value.Equal(cur) {
		return 0
	}
	h := value
	for k := 1; k <= limit; k++ {
		h = cryptoutil.HashStep(h)
		if h.Equal(cur) {
			return k
		}
	}
	return 0
}

// checkFreshness enforces §III step 5c / §V "Short Attack Window": the
// freshness statement must be no older than 2∆.
func (st *Status) checkFreshness(now int64) error {
	p := st.Root.Period(now)
	if p > int(st.Root.ChainLen) {
		return fmt.Errorf("%w: signed root expired (period %d beyond chain length %d)", ErrStale, p, st.Root.ChainLen)
	}
	if cryptoutil.VerifyChainValue(st.Root.Anchor, st.Freshness, p) == nil {
		return nil
	}
	if p > 0 && cryptoutil.VerifyChainValue(st.Root.Anchor, st.Freshness, p-1) == nil {
		// The statement is one period behind, tolerated because CA and RA
		// pull cycles are not synchronized (§V).
		return nil
	}
	return fmt.Errorf("%w: freshness statement older than 2∆ (period %d)", ErrStale, p)
}
