package tlssim

import (
	"bufio"
	"io"
	"testing"
)

// FuzzRecordStream feeds arbitrary bytes, cut into arbitrary chunks, through
// the buffered record reader a Conn reads with, and every handshake record
// through ParseHandshake and the Parse* function of its message type: the
// bytes an on-path RA parses come from an untrusted server. Nothing may
// panic.
func FuzzRecordStream(f *testing.F) {
	flight := fuzzFlight(f)
	f.Add(flight, []byte{1})
	f.Add(flight, []byte{3, 1, 4, 1, 5, 9, 2, 6})
	f.Add([]byte{22, 3, 3, 0, 4, 2, 0, 0, 0}, []byte{})
	f.Add([]byte{22, 3, 3, 0xff, 0xff}, []byte{2})
	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		r := bufio.NewReader(&chunkedReader{data: stream, cuts: cuts})
		for {
			rec, err := ReadRecord(r)
			if err != nil {
				return
			}
			if rec.Type != ContentHandshake {
				continue
			}
			msg, err := ParseHandshake(rec.Payload)
			if err != nil {
				continue
			}
			parseBody(msg)
		}
	})
}

// parseBody runs the parser of msg's type (every type, for unknown ones).
func parseBody(msg Handshake) {
	parsers := map[HandshakeType]func([]byte) error{
		TypeClientHello:       func(b []byte) error { _, err := ParseClientHello(b); return err },
		TypeServerHello:       func(b []byte) error { _, err := ParseServerHello(b); return err },
		TypeCertificate:       func(b []byte) error { _, err := ParseCertificateMsg(b); return err },
		TypeServerKeyExchange: func(b []byte) error { _, err := ParseServerKeyExchange(b); return err },
		TypeClientKeyExchange: func(b []byte) error { _, err := ParseClientKeyExchange(b); return err },
		TypeFinished:          func(b []byte) error { _, err := ParseFinished(b); return err },
		TypeNewSessionTicket:  func(b []byte) error { _, err := ParseNewSessionTicket(b); return err },
	}
	if parse, ok := parsers[msg.Type]; ok {
		_ = parse(msg.Body)
		return
	}
	for _, parse := range parsers {
		_ = parse(msg.Body)
	}
}

// chunkedReader returns data in reads whose sizes cycle through cuts. A
// zero cut reads one byte: like a net.Conn, it never returns 0 bytes with
// a nil error, on which io.ReadFull would spin forever.
type chunkedReader struct {
	data []byte
	cuts []byte
	i    int
}

func (r *chunkedReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := len(r.data)
	if len(r.cuts) > 0 {
		n = max(1, int(r.cuts[r.i%len(r.cuts)]))
		r.i++
	}
	n = min(n, len(p), len(r.data))
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// fuzzFlight returns every handshake message of a full handshake, an
// injected status and an alert, one record each, as a seed.
func fuzzFlight(f *testing.F) []byte {
	env := newTestEnv(f)
	var out []byte
	for _, rec := range []Record{
		{Type: ContentHandshake, Payload: (&ClientHello{SessionID: []byte{1}, Extensions: []Extension{{Type: ExtRITMSupport}}}).Marshal().Encode()},
		{Type: ContentHandshake, Payload: (&ServerHello{SessionID: []byte{1}}).Marshal().Encode()},
		{Type: ContentHandshake, Payload: (&CertificateMsg{Chain: env.chain}).Marshal().Encode()},
		{Type: ContentRITMStatus, Payload: []byte{1, 2, 3}},
		{Type: ContentHandshake, Payload: (&ServerKeyExchange{Public: make([]byte, 32), Signature: make([]byte, 64)}).Marshal().Encode()},
		{Type: ContentHandshake, Payload: ServerHelloDone{}.Marshal().Encode()},
		{Type: ContentHandshake, Payload: (&ClientKeyExchange{Public: make([]byte, 32)}).Marshal().Encode()},
		{Type: ContentHandshake, Payload: (&NewSessionTicket{LifetimeSecs: 60, Ticket: []byte("ticket")}).Marshal().Encode()},
		{Type: ContentHandshake, Payload: (&Finished{VerifyData: make([]byte, 12)}).Marshal().Encode()},
		alertRecord(alertHandshakeFailure),
	} {
		var err error
		if out, err = AppendRecord(out, rec); err != nil {
			f.Fatal(err)
		}
	}
	return out
}
