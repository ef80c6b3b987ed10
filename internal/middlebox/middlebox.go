// Package middlebox is the connection core under both RA data planes: the
// tlssim inject proxy (ra.Proxy) and the crypto/tls bump
// (interception.Interceptor). It owns what a TCP middlebox needs whatever
// its policy — the accept loop, the table of live connections, the drain on
// Close, the error sink and the two-way splice with half-close — so each
// plane keeps only its per-connection decision.
//
// Construct with New, install the error sink, then Start: a handler never
// runs before its plane is fully built.
package middlebox

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// Server accepts connections on one listener and tracks every conn its
// handlers own, so Close can tear them all down and wait for the handlers.
type Server struct {
	ln    net.Listener
	onErr atomic.Pointer[func(error)]

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// New wraps ln. Nothing is accepted until Start.
func New(ln net.Listener) *Server {
	return &Server{ln: ln, conns: make(map[net.Conn]struct{})}
}

// Start accepts connections until Close, running handle on each in its own
// goroutine. The accepted conn is tracked for the handler's lifetime and
// closed when it returns; a non-nil return goes to Report.
func (s *Server) Start(handle func(net.Conn) error) {
	s.Go(func() {
		for {
			c, err := s.ln.Accept()
			if err != nil {
				return // listener closed
			}
			if !s.Track(c) {
				c.Close()
				return
			}
			s.Go(func() {
				defer s.Release(c)
				s.Report(handle(c))
			})
		}
	})
}

// Addr returns the listening address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Go runs fn in a goroutine that Close waits for. Call it only from Start's
// handlers (or goroutines they started), so the wait cannot have begun.
func (s *Server) Go(fn func()) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		fn()
	}()
}

// Track registers c so Close closes it. It reports false, leaving c to the
// caller, once the server is closed.
func (s *Server) Track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

// Release closes c and forgets it.
func (s *Server) Release(c net.Conn) {
	c.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, c)
}

// Dial runs dial and tracks the conn it returns. After Close the conn is
// closed again at once and Dial returns net.ErrClosed.
func (s *Server) Dial(dial func() (net.Conn, error)) (net.Conn, error) {
	c, err := dial()
	if err != nil {
		return nil, err
	}
	if !s.Track(c) {
		c.Close()
		return nil, net.ErrClosed
	}
	return c, nil
}

// Close stops accepting, closes every tracked conn, and waits for every
// goroutine started through Go (handlers included) to return.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// SetOnError installs the callback that receives the per-connection errors
// the server absorbs (it never stops serving because one connection
// misbehaved). Safe to call while serving; nil uninstalls.
func (s *Server) SetOnError(fn func(error)) {
	if fn == nil {
		s.onErr.Store(nil)
		return
	}
	s.onErr.Store(&fn)
}

// Report delivers a non-nil err to the installed callback, if any.
func (s *Server) Report(err error) {
	if err == nil {
		return
	}
	if fn := s.onErr.Load(); fn != nil {
		(*fn)(err)
	}
}

// Splice copies bytes between a and b in both directions until both
// directions finish, half-closing each sink when its source drains. src,
// when non-nil, is read in place of a (a reader holding bytes already
// peeked from a). Benign teardown is silent; every other error — a peer
// reset mid-splice, a write into a half-closed socket — is reported, and
// Splice returns how many there were, because a middlebox that drops them
// turns every downstream incident into "the RA ate my bytes".
//
// When both ends are raw *net.TCPConn, io.Copy moves the bytes in-kernel
// (splice/sendfile) on Linux.
func (s *Server) Splice(a net.Conn, src io.Reader, b net.Conn) int64 {
	if src == nil {
		src = a
	}
	toB := make(chan int64, 1)
	go func() { toB <- s.pipe(b, src) }()
	n := s.pipe(a, b)
	return n + <-toB
}

// pipe copies src → dst, half-closes dst, and reports a non-benign error.
func (s *Server) pipe(dst net.Conn, src io.Reader) int64 {
	_, err := io.Copy(dst, src)
	HalfClose(dst)
	if err == nil || Benign(err) {
		return 0
	}
	s.Report(fmt.Errorf("middlebox: splice: %w", err))
	return 1
}

// HalfClose propagates end-of-stream: CloseWrite on conns that support it
// (TCP FIN, TLS close_notify), a full Close otherwise.
func HalfClose(c net.Conn) {
	if cw, ok := c.(interface{ CloseWrite() error }); ok {
		cw.CloseWrite() //nolint:errcheck // advisory; the peer may be gone
		return
	}
	c.Close() //nolint:errcheck // advisory
}

// Benign reports errors that are normal connection teardown (EOF, our own
// Close) rather than data loss.
func Benign(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, io.ErrClosedPipe)
}
