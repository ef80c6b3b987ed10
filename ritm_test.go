package ritm_test

import (
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ritm"
	"ritm/internal/cdn"
	"ritm/internal/ritmclient"
	"ritm/internal/tlssim"
)

// deployment is a full RITM deployment built exclusively through the
// public facade, with the CDN reached over its real HTTP transport.
type deployment struct {
	ca     *ritm.CA
	dp     *ritm.DistributionPoint
	agent  *ritm.RA
	pool   *ritm.Pool
	chain  ritm.Chain
	key    *ritm.Signer
	server net.Listener
	proxy  string // the RA proxy's listen address
	wg     sync.WaitGroup
}

func newDeployment(t *testing.T, delta time.Duration) *deployment {
	t.Helper()
	d := &deployment{}
	d.dp = ritm.NewDistributionPoint(nil)
	var err error
	d.ca, err = ritm.NewCA(ritm.CAConfig{ID: "IntegrationCA", Delta: delta, Publisher: d.dp})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.dp.RegisterCA("IntegrationCA", d.ca.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if err := d.ca.PublishRoot(); err != nil {
		t.Fatal(err)
	}

	// The RA pulls over real HTTP, as a production RA would.
	cdnSrv := httptest.NewServer(cdn.NewHandler(ritm.NewEdgeServer(d.dp, 0, nil), cdn.HandlerOptions{}))
	t.Cleanup(cdnSrv.Close)
	d.agent, err = ritm.NewRA(ritm.RAConfig{
		Roots:  []*ritm.Certificate{d.ca.RootCertificate()},
		Origin: &ritm.HTTPClient{BaseURL: cdnSrv.URL, Client: http.DefaultClient},
		Delta:  delta,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.agent.SyncOnce(); err != nil {
		t.Fatal(err)
	}

	d.key, err = ritm.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := d.ca.IssueServerCertificate("integration.example", d.key.Public())
	if err != nil {
		t.Fatal(err)
	}
	d.chain = ritm.Chain{leaf}
	d.pool, err = ritm.NewPool(d.ca.RootCertificate())
	if err != nil {
		t.Fatal(err)
	}

	// Echo server behind the RA proxy.
	d.server, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serverCfg := &ritm.TLSConfig{Chain: d.chain, Key: d.key}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		for {
			raw, err := d.server.Accept()
			if err != nil {
				return
			}
			d.wg.Add(1)
			go func() {
				defer d.wg.Done()
				conn := tlssim.Server(raw, serverCfg)
				defer conn.Close()
				buf := make([]byte, 1024)
				for {
					n, err := conn.Read(buf)
					if err != nil {
						return
					}
					if _, err := conn.Write(buf[:n]); err != nil {
						return
					}
				}
			}()
		}
	}()
	proxy, err := d.agent.NewProxy("127.0.0.1:0", d.server.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	d.proxy = proxy.Addr().String()
	t.Cleanup(func() {
		proxy.Close()
		d.server.Close()
		d.wg.Wait()
	})
	return d
}

func TestEndToEndThroughPublicAPI(t *testing.T) {
	t.Run("sorted", func(t *testing.T) {
		d := newDeployment(t, 10*time.Second)

		conn, err := ritm.Dial("tcp", d.proxy, "integration.example", &ritm.ClientConfig{
			Pool:          d.pool,
			Delta:         10 * time.Second,
			RequireStatus: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()

		if conn.Verifier().ValidCount() == 0 {
			t.Error("no verified status")
		}
		if _, err := conn.Write([]byte("integration")); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 32)
		n, err := conn.Read(buf)
		if err != nil || string(buf[:n]) != "integration" {
			t.Fatalf("echo: %q, %v", buf[:n], err)
		}
	})
}

func TestEndToEndRevocationBlocksHandshake(t *testing.T) {
	d := newDeployment(t, 10*time.Second)
	if _, err := d.ca.RevokeCertificate(d.chain.Leaf()); err != nil {
		t.Fatal(err)
	}
	if err := d.agent.SyncOnce(); err != nil {
		t.Fatal(err)
	}

	_, err := ritm.Dial("tcp", d.proxy, "integration.example", &ritm.ClientConfig{
		Pool:          d.pool,
		Delta:         10 * time.Second,
		RequireStatus: true,
	})
	if err == nil {
		t.Fatal("revoked certificate accepted end-to-end")
	}
	if !errors.Is(err, tlssim.ErrStatusRejected) && !errors.Is(err, ritmclient.ErrRevoked) {
		t.Errorf("err = %v", err)
	}
}

func TestEndToEndConsistencyChecking(t *testing.T) {
	d := newDeployment(t, 10*time.Second)
	auditor := ritm.NewAuditor(d.pool)
	ms := ritm.NewMapServer()
	ms.Register("dp", d.dp)
	ms.Register("ra", d.agent.Store())

	res := ritm.CrossCheck(ms, auditor, "IntegrationCA")
	if len(res.Errors) != 0 {
		t.Fatalf("cross-check errors: %v", res.Errors)
	}
	if len(res.Proofs) != 0 {
		t.Fatalf("honest deployment flagged: %d proofs", len(res.Proofs))
	}
	if res.RootsCompared != 2 {
		t.Errorf("compared %d roots", res.RootsCompared)
	}
}
