package dictionary

import (
	"bytes"
	"crypto/ed25519"
	"testing"
	"time"

	"ritm/internal/cryptoutil"
	"ritm/internal/serial"
	"ritm/internal/wire"
)

// FuzzDecodeProof hardens the proof decoder against hostile or corrupted
// bodies: truncations at every depth, bit flips, length-field lies, and
// unknown kinds. The seed corpus covers every proof shape — presence,
// two-leaf absence, both boundary absences, the empty dictionary — plus
// classic malformations and the retired forest layout's form, which must be
// refused: the kind byte's 0x80 flag and a spine segment after the leaves.
func FuzzDecodeProof(f *testing.F) {
	gen := serial.NewGenerator(0xF022, nil)
	tree := NewTree()
	batch := gen.NextN(600)
	if err := tree.InsertBatch(batch); err != nil {
		f.Fatal(err)
	}
	probes := []serial.Number{
		batch[0], batch[1], batch[300], batch[599], // presence
		gen.Next(), gen.Next(), gen.Next(), gen.Next(), gen.Next(), // two-leaf absence (almost surely)
		serial.FromUint64(0), // left boundary
		mustMaxSerial(),      // right boundary
	}
	for _, s := range probes {
		f.Add(tree.Prove(s).Encode())
	}
	empty := NewTree().Prove(batch[0]).Encode()
	f.Add(empty)
	// A forest proof: spine flag on the kind byte, then the segment — empty
	// lower bound, upper bound, bucket index, bucket count, leaf count and a
	// one-hash spine path.
	e := wire.NewEncoder(256)
	e.Raw(tree.Prove(batch[0]).Encode())
	e.BytesField(nil)
	e.BytesField(batch[1].Raw())
	e.Uvarint(0)
	e.Uvarint(2)
	e.Uvarint(1)
	e.Uvarint(1)
	e.Raw(make([]byte, cryptoutil.HashSize))
	spined := e.Bytes()
	spined[0] |= 0x80
	f.Add(spined)
	f.Add(spined[:1])                               // kind byte only
	f.Add(spined[:len(spined)/2])                   // mid-spine truncation
	f.Add(spined[:len(spined)-1])                   // one byte short
	f.Add(append(append([]byte{}, spined...), 0))   // trailing garbage
	f.Add([]byte{byte(ProofPresence) | 0x80, 0, 0}) // spine flag, no spine
	f.Add([]byte{0xff, 0x01, 0x02})                 // unknown kind + junk
	f.Add([]byte{2, 1, 0xff, 0xff, 0xff, 0xff})     // length-field lie
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeProof(data)
		if err != nil {
			return // rejection is always acceptable; panics/hangs are the bug
		}
		// Accepted input: the encoding must round-trip to an equivalent
		// proof — same kind, byte-identical re-encode.
		enc := p.Encode()
		again, err := DecodeProof(enc)
		if err != nil {
			t.Fatalf("accepted proof failed second decode: %v", err)
		}
		if again.Kind != p.Kind {
			t.Fatal("second decode changed proof shape")
		}
		if !bytes.Equal(again.Encode(), enc) {
			t.Fatalf("re-encoding unstable:\n in: %x\nout: %x", enc, again.Encode())
		}
	})
}

// FuzzDecodeStatus feeds ritmclient's input — the status bytes an untrusted
// RA splices into the handshake — through DecodeStatus and Status.Check.
// Neither may panic, and whatever the bytes, a status Check accepts for a
// serial says about it exactly what the CA's dictionary says: the verdict
// and the proof are the honest ones (the advisory Subject and the 2∆
// tolerance of the freshness value are the only bytes free to move). The
// seed corpus is every proof shape in the one absence encoding, plus
// truncations.
func FuzzDecodeStatus(f *testing.F) {
	const now = 1000
	type verdict struct {
		s     serial.Number
		pub   ed25519.PublicKey
		res   CheckResult
		proof []byte
	}
	var honest []verdict
	batch := serial.NewGenerator(0xF0225, nil).NextN(600)
	absent := serial.NewGenerator(0xAB5E, nil)
	a, err := NewAuthority(AuthorityConfig{
		CA: "CA1", Signer: cryptoutil.NewSignerFromSeed([32]byte{1}),
		Delta: 10 * time.Second, ChainLength: 16,
		// Fuzz workers are separate processes and must rebuild the very
		// statuses the coordinator seeded the corpus with: fixed key above,
		// fixed freshness-chain seeds here.
		Rand: bytes.NewReader(make([]byte, 1<<10)),
	}, now)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := a.Insert(batch, now); err != nil {
		f.Fatal(err)
	}
	probes := []serial.Number{
		batch[0], batch[1], batch[150], batch[300], batch[450], batch[599], // presence
		absent.Next(), absent.Next(), absent.Next(), absent.Next(), absent.Next(), absent.Next(), // two-leaf absence (almost surely)
		serial.FromUint64(0), mustMaxSerial(), // both boundaries
	}
	for _, s := range probes {
		st, err := a.Prove(s, now)
		if err != nil {
			f.Fatal(err)
		}
		res, err := st.Check(s, a.PublicKey(), now)
		if err != nil {
			f.Fatal(err)
		}
		honest = append(honest, verdict{s, a.PublicKey(), res, st.Proof.Encode()})
		enc := st.Encode()
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
		f.Add(enc[:len(enc)-1])
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeStatus(data)
		if err != nil {
			return
		}
		for _, h := range honest {
			res, err := st.Check(h.s, h.pub, now)
			if err != nil {
				continue
			}
			if res != h.res || !bytes.Equal(st.Proof.Encode(), h.proof) {
				t.Fatalf("accepted a status for %v the dictionary did not produce: result %v, honest %v", h.s, res, h.res)
			}
		}
	})
}

// mustMaxSerial returns the largest representable serial (20 × 0xff).
func mustMaxSerial() serial.Number {
	b := make([]byte, serial.MaxLen)
	for i := range b {
		b[i] = 0xff
	}
	s, err := serial.New(b)
	if err != nil {
		panic(err)
	}
	return s
}
