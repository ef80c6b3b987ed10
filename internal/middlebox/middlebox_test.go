package middlebox

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// errLog collects the errors a Server reports.
type errLog struct {
	mu   sync.Mutex
	errs []error
}

func (l *errLog) add(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.errs = append(l.errs, err)
}

func (l *errLog) snapshot() []error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]error(nil), l.errs...)
}

// start runs a Server on a loopback listener with handle as its policy.
func start(t *testing.T, handle func(*Server, net.Conn) error) (*Server, *errLog) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := New(ln)
	log := &errLog{}
	s.SetOnError(log.add)
	s.Start(func(c net.Conn) error { return handle(s, c) })
	t.Cleanup(func() { s.Close() })
	return s, log
}

// upstream accepts one connection and hands it to fn.
func upstream(t *testing.T, fn func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		fn(c)
	}()
	return ln.Addr().String()
}

func dialer(addr string) func() (net.Conn, error) {
	return func() (net.Conn, error) { return net.Dial("tcp", addr) }
}

func dial(t *testing.T, s *Server) *net.TCPConn {
	t.Helper()
	c, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck // test bound
	return c.(*net.TCPConn)
}

// spliceVia is a policy that dials addr and splices the client to it,
// sending the splice's error count on n.
func spliceVia(addr string, n chan<- int64) func(*Server, net.Conn) error {
	return func(s *Server, c net.Conn) error {
		up, err := s.Dial(dialer(addr))
		if err != nil {
			return err
		}
		defer s.Release(up)
		n <- s.Splice(c, nil, up)
		return nil
	}
}

// TestCloseDrainsBlockedHandler: Close returns while a handler is blocked
// reading its dialed upstream, and both of the handler's conns are closed.
func TestCloseDrainsBlockedHandler(t *testing.T) {
	upClosed := make(chan error, 1)
	addr := upstream(t, func(c net.Conn) {
		c.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck // test bound
		_, err := c.Read(make([]byte, 1))
		upClosed <- err
	})
	blocked := make(chan struct{})
	s, _ := start(t, func(s *Server, c net.Conn) error {
		up, err := s.Dial(dialer(addr))
		if err != nil {
			return err
		}
		defer s.Release(up)
		close(blocked)
		_, err = up.Read(make([]byte, 1)) // the upstream never writes
		return err
	})
	client := dial(t, s)
	<-blocked

	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return while a handler was blocked on its upstream")
	}
	if _, err := client.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Errorf("client side after Close: %v, want EOF", err)
	}
	if err := <-upClosed; !errors.Is(err, io.EOF) {
		t.Errorf("upstream side after Close: %v, want EOF", err)
	}
}

// TestSpliceHalfClose: end-of-stream crosses the splice in each direction
// on its own while the other direction keeps flowing.
func TestSpliceHalfClose(t *testing.T) {
	t.Run("client first", func(t *testing.T) {
		addr := upstream(t, func(c net.Conn) {
			got, _ := io.ReadAll(c)                 // returns at the client's FIN
			c.Write(append([]byte("got "), got...)) //nolint:errcheck // checked by the client
		})
		n := make(chan int64, 1)
		s, log := start(t, spliceVia(addr, n))
		client := dial(t, s)
		client.Write([]byte("ping")) //nolint:errcheck // checked by the upstream's reply
		client.CloseWrite()          //nolint:errcheck // the half-close under test
		back, err := io.ReadAll(client)
		if err != nil || string(back) != "got ping" {
			t.Fatalf("reply after client half-close: %q, %v", back, err)
		}
		if got := <-n; got != 0 || len(log.snapshot()) != 0 {
			t.Fatalf("clean splice counted %d errors, reported %v", got, log.snapshot())
		}
	})
	t.Run("upstream first", func(t *testing.T) {
		addr := upstream(t, func(c net.Conn) {
			c.Write([]byte("banner")) //nolint:errcheck // checked by the client
			c.(*net.TCPConn).CloseWrite()
			io.ReadAll(c) //nolint:errcheck // drain until the client's FIN
		})
		n := make(chan int64, 1)
		s, log := start(t, spliceVia(addr, n))
		client := dial(t, s)
		back, err := io.ReadAll(client) // returns at the upstream's FIN
		if err != nil || string(back) != "banner" {
			t.Fatalf("upstream stream: %q, %v", back, err)
		}
		// The client→upstream direction still flows after the FIN.
		if _, err := client.Write([]byte("late")); err != nil {
			t.Fatalf("write after upstream half-close: %v", err)
		}
		client.CloseWrite() //nolint:errcheck // ends the splice
		if got := <-n; got != 0 || len(log.snapshot()) != 0 {
			t.Fatalf("clean splice counted %d errors, reported %v", got, log.snapshot())
		}
	})
}

// TestSplicePeekedSource: bytes a policy peeked before deciding still reach
// the upstream, ahead of the rest of the stream.
func TestSplicePeekedSource(t *testing.T) {
	got := make(chan string, 1)
	addr := upstream(t, func(c net.Conn) {
		b, _ := io.ReadAll(c)
		got <- string(b)
	})
	s, _ := start(t, func(s *Server, c net.Conn) error {
		br := bufio.NewReader(c)
		if _, err := br.Peek(4); err != nil {
			return err
		}
		up, err := s.Dial(dialer(addr))
		if err != nil {
			return err
		}
		defer s.Release(up)
		s.Splice(c, br, up)
		return nil
	})
	client := dial(t, s)
	client.Write([]byte("peeked+rest")) //nolint:errcheck // checked by the upstream
	client.CloseWrite()                 //nolint:errcheck // ends the stream
	if g := <-got; g != "peeked+rest" {
		t.Fatalf("upstream received %q", g)
	}
}

// TestSpliceResetCountedOnce: an upstream that resets mid-stream is one
// splice error, counted and reported once; the teardown it causes is not.
func TestSpliceResetCountedOnce(t *testing.T) {
	addr := upstream(t, func(c net.Conn) {
		c.Read(make([]byte, 1))       //nolint:errcheck // any outcome proceeds to the reset
		c.(*net.TCPConn).SetLinger(0) //nolint:errcheck // RST instead of FIN
		c.Close()
	})
	n := make(chan int64, 1)
	s, log := start(t, spliceVia(addr, n))
	client := dial(t, s)
	client.Write([]byte("x")) //nolint:errcheck // triggers the reset
	if _, err := io.ReadAll(client); err != nil {
		t.Fatalf("client should see the half-close, got %v", err)
	}
	client.Close()
	if got := <-n; got != 1 {
		t.Fatalf("Splice counted %d errors for one reset, want 1", got)
	}
	if errs := log.snapshot(); len(errs) != 1 {
		t.Fatalf("reported %d errors for one reset, want 1: %v", len(errs), errs)
	}
}

// TestClosedServerRefusesConns: after Close nothing new is tracked, and a
// dialed upstream is closed again at once.
func TestClosedServerRefusesConns(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := New(ln)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	if s.Track(a) {
		t.Error("Track succeeded after Close")
	}
	dialed, peer := net.Pipe()
	defer peer.Close()
	_, err = s.Dial(func() (net.Conn, error) { return dialed, nil })
	if !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Dial after Close: %v, want net.ErrClosed", err)
	}
	if _, err := dialed.Write([]byte("x")); !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("conn dialed after Close still open: write gave %v", err)
	}
}
