package ra

import (
	"bytes"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"ritm/internal/tlssim"
)

// TestProxySpliceErrorSurfaced regresses the raw-pipe error handling: an
// upstream that resets mid-stream (half-close followed by RST while the
// client keeps writing) must surface through SetOnError and the
// SpliceErrors counter instead of being swallowed — the seed dropped both
// copy errors on the floor.
func TestProxySpliceErrorSurfaced(t *testing.T) {
	e := newEnv(t, time.Hour)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		tc := c.(*net.TCPConn)
		// Wait for the first byte so the abort happens mid-stream, then
		// send an RST (SetLinger(0) + Close) instead of a clean FIN.
		buf := make([]byte, 1)
		tc.Read(buf)    //nolint:errcheck // any outcome proceeds to the reset
		tc.SetLinger(0) //nolint:errcheck // best effort
		tc.Close()
	}()

	proxy, err := e.ra.NewProxy("127.0.0.1:0", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	errCh := make(chan error, 16)
	proxy.SetOnError(func(err error) {
		select {
		case errCh <- err:
		default:
		}
	})

	conn, err := net.Dial("tcp", proxy.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// A non-TLS first byte routes the connection down the raw pipe path.
	payload := bytes.Repeat([]byte{'x'}, 4096)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := conn.Write(payload); err != nil {
			break // the RST propagated back through the proxy
		}
		time.Sleep(2 * time.Millisecond)
	}

	for time.Now().Before(deadline) {
		if e.ra.Stats().SpliceErrors > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := e.ra.Stats().SpliceErrors; got == 0 {
		t.Fatal("SpliceErrors = 0 after a mid-stream reset")
	}
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("nil error delivered to SetOnError")
		}
	default:
		t.Fatal("no error delivered to SetOnError")
	}
}

// TestProxyNonTLSServerFirst: a server that speaks first (an SSH banner)
// reaches a client that waits for it. The proxy's first-bytes read is
// bounded; when it expires with nothing from the client the connection is
// spliced verbatim and counted as non-TLS, instead of the handler blocking
// in the peek forever with the upstream conn held open.
func TestProxyNonTLSServerFirst(t *testing.T) {
	saved := firstBytesTimeout
	firstBytesTimeout = 100 * time.Millisecond
	t.Cleanup(func() { firstBytesTimeout = saved })
	e := newEnv(t, time.Hour)

	const banner = "SSH-2.0-OpenSSH_9.6\r\n"
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		if _, err := c.Write([]byte(banner)); err != nil {
			return
		}
		io.Copy(c, c) //nolint:errcheck // echo until EOF
	}()

	proxy, err := e.ra.NewProxy("127.0.0.1:0", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	conn, err := net.Dial("tcp", proxy.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck // test bound
	got := make([]byte, len(banner))
	if _, err := io.ReadFull(conn, got); err != nil || string(got) != banner {
		t.Fatalf("banner through the proxy: %q, %v", got, err)
	}
	// The splice carries the client's reply too.
	if _, err := conn.Write([]byte("hello\n")); err != nil {
		t.Fatal(err)
	}
	echo := make([]byte, len("hello\n"))
	if _, err := io.ReadFull(conn, echo); err != nil || string(echo) != "hello\n" {
		t.Fatalf("echo through the proxy: %q, %v", echo, err)
	}
	if st := e.ra.Stats(); st.NonTLSConnections != 1 {
		t.Errorf("NonTLSConnections = %d, want 1", st.NonTLSConnections)
	}
}

// TestProxyClientAlertTeardownNotAnError: a client that refuses the
// connection sends a fatal alert and closes, and the server's next records
// then hit a closed socket. That write error is the teardown the client
// asked for, so it reaches neither SetOnError nor SpliceErrors. A client
// that closes without an alert, and whose socket then fails the same
// write, is still reported.
func TestProxyClientAlertTeardownNotAnError(t *testing.T) {
	alert := tlssim.Record{Type: tlssim.ContentAlert, Payload: []byte{2, 120}} // fatal RITM-policy alert
	data := tlssim.Record{Type: tlssim.ContentApplicationData, Payload: []byte("bye")}
	for _, tc := range []struct {
		name       string
		last       tlssim.Record // the client's only record before it closes
		wantReport bool
	}{
		{"alert then close", alert, false},
		{"close without alert", data, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, time.Hour)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			upstreamDone := make(chan struct{})
			go func() {
				defer close(upstreamDone)
				c, err := ln.Accept()
				if err != nil {
					return
				}
				defer c.Close()
				// Once the proxy has relayed the client's end of stream,
				// keep sending until the proxy drops this leg.
				io.Copy(io.Discard, c) //nolint:errcheck // until the client's FIN arrives
				rec, _ := tlssim.AppendRecord(nil, tlssim.Record{Type: tlssim.ContentApplicationData, Payload: bytes.Repeat([]byte{'s'}, 1024)})
				c.SetWriteDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck // test bound
				for {
					if _, err := c.Write(rec); err != nil {
						return
					}
				}
			}()

			proxy, err := e.ra.NewProxy("127.0.0.1:0", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			var reported atomic.Int64
			proxy.SetOnError(func(error) { reported.Add(1) })

			conn, err := net.Dial("tcp", proxy.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			if err := tlssim.WriteRecord(conn, tc.last); err != nil {
				t.Fatal(err)
			}
			conn.Close()

			// The upstream writer stops when the handler drops its leg, after
			// the server→client pump has failed; Close then waits for the
			// handler to count and report.
			select {
			case <-upstreamDone:
			case <-time.After(15 * time.Second):
				t.Fatal("upstream still writing: the proxy never dropped its leg")
			}
			proxy.Close()
			if got := reported.Load() > 0; got != tc.wantReport {
				t.Errorf("reported = %d, want reported %v", reported.Load(), tc.wantReport)
			}
			if got := e.ra.Stats().SpliceErrors > 0; got != tc.wantReport {
				t.Errorf("SpliceErrors = %d, want counted %v", e.ra.Stats().SpliceErrors, tc.wantReport)
			}
		})
	}
}
