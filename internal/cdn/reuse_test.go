package cdn

import (
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDefaultClientReusesConnections pins the keep-alive behavior of the
// default (no explicit http.Client) HTTPClient path. The regression this
// guards: falling back to http.DefaultClient caps the idle pool at 2
// connections per host, so a fleet's concurrent pulls against one edge
// host churned TCP connections — a burst of 8 parallel requests followed
// by another burst re-dialed most of them. With the shared tuned
// transport, every connection opened by the first burst is reusable by
// the second.
func TestDefaultClientReusesConnections(t *testing.T) {
	const parallel = 8
	var conns atomic.Int64
	// Each handler parks until all requests of its burst have arrived, so
	// every burst has exactly parallel requests in flight at once: the
	// first must open parallel connections and the second needs all of
	// them back from the idle pool. Without the barrier a loaded scheduler
	// can serialize the first burst onto fewer connections than the second
	// then needs.
	arrived := make(chan struct{}, parallel)
	release := make(chan struct{})
	done := make(chan struct{})
	unpark := sync.OnceFunc(func() { close(done) })
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrived <- struct{}{}
		select {
		case <-release:
		case <-done:
		}
		w.Write([]byte("CA1\n"))
	}))
	srv.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	defer unpark() // runs before srv.Close, which waits for parked handlers

	client := &HTTPClient{BaseURL: srv.URL} // nil Client: the shared default transport

	burst := func() {
		var wg sync.WaitGroup
		for i := 0; i < parallel; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := client.CAs(); err != nil {
					t.Errorf("CAs: %v", err)
				}
			}()
		}
		timeout := time.After(10 * time.Second)
		for i := 0; i < parallel; i++ {
			select {
			case <-arrived:
			case <-timeout:
				unpark()
				wg.Wait()
				t.Fatalf("only %d of %d parallel requests reached the server", i, parallel)
			}
		}
		for i := 0; i < parallel; i++ {
			release <- struct{}{}
		}
		// A response body read to EOF has put its connection back in the
		// idle pool before the read returns, so no settling delay is needed.
		wg.Wait()
	}

	burst()
	after1 := conns.Load()
	if after1 != parallel {
		t.Fatalf("first burst of %d concurrent requests opened %d connections", parallel, after1)
	}
	burst()
	if after2 := conns.Load(); after2 != after1 {
		t.Errorf("second burst opened %d new connections (total %d); the idle pool should have satisfied all %d",
			after2-after1, after2, parallel)
	}
}
