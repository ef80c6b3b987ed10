package main

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"errors"
	"io"
	"math/big"
	"strings"
	"testing"
	"time"

	"ritm"
)

// TestBuildEdgeChain pins which -edge-chain values the RA accepts at the
// default ∆ = 10 s: positive TTLs whose sum stays below ∆. Each layer can
// serve one freshness statement for its whole TTL, so a longer chain could
// hand clients a statement older than the 2∆ they accept.
func TestBuildEdgeChain(t *testing.T) {
	const delta = 10 * time.Second
	tests := []struct {
		ttls   string
		errHas string // refused: the error names this
	}{
		{ttls: ""},
		{ttls: "9s"},
		{ttls: "2s,5s"},
		{ttls: " 1s , 2s , 3s "},
		{ttls: "5s,30s", errHas: "sum to 35s, not below ∆ = 10s"},
		{ttls: "5s,5s", errHas: "sum to 10s, not below ∆ = 10s"},
		{ttls: "10s", errHas: "sum to 10s"},
		{ttls: "2s,0s", errHas: "layer 1: TTL 0s must be positive"},
		{ttls: "-1s", errHas: "must be positive"},
		{ttls: "2s,soon", errHas: "edge-chain layer 1"},
	}
	for _, tt := range tests {
		t.Run(tt.ttls, func(t *testing.T) {
			base := ritm.NewDistributionPoint(nil)
			origin, err := buildEdgeChain(base, tt.ttls, delta)
			if tt.errHas != "" {
				if err == nil || !strings.Contains(err.Error(), tt.errHas) {
					t.Fatalf("err = %v, want one naming %q", err, tt.errHas)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, isEdge := origin.(*ritm.EdgeServer); isEdge != (tt.ttls != "") {
				t.Errorf("origin is a %T", origin)
			}
		})
	}
}

// TestInterceptVerifiesUpstreamChain: the -intercept configuration checks
// the upstream's chain against the system roots before it mints anything.
// An upstream whose certificate chains to a private root, even one named
// after a CA the RA replicates and with a serial it has not revoked, is
// not bumped, so the client's handshake against the minting root fails.
// The control run, with no upstream verification, bumps the same upstream.
func TestInterceptVerifiesUpstreamChain(t *testing.T) {
	const (
		caID = "InterceptCA"
		host = "site.example"
	)
	dp := ritm.NewDistributionPoint(nil)
	authority, err := ritm.NewCA(ritm.CAConfig{ID: caID, Delta: 10 * time.Second, Publisher: dp})
	if err != nil {
		t.Fatal(err)
	}
	if err := dp.RegisterCA(caID, authority.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if err := authority.PublishRoot(); err != nil {
		t.Fatal(err)
	}
	agent, err := ritm.NewRA(ritm.RAConfig{
		Roots:  []*ritm.Certificate{authority.RootCertificate()},
		Origin: ritm.NewEdgeServer(dp, 0, nil),
		Delta:  10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.SyncOnce(); err != nil {
		t.Fatal(err)
	}

	// A private x509 root named like the replicated CA, and a leaf for host.
	newKey := func() *ecdsa.PrivateKey {
		k, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	caKey, leafKey := newKey(), newKey()
	caTmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: caID},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(time.Hour),
		IsCA:                  true,
		KeyUsage:              x509.KeyUsageCertSign,
		BasicConstraintsValid: true,
	}
	caDER, err := x509.CreateCertificate(rand.Reader, caTmpl, caTmpl, &caKey.PublicKey, caKey)
	if err != nil {
		t.Fatal(err)
	}
	caCert, err := x509.ParseCertificate(caDER)
	if err != nil {
		t.Fatal(err)
	}
	leafDER, err := x509.CreateCertificate(rand.Reader, &x509.Certificate{
		SerialNumber: big.NewInt(0x4242),
		Subject:      pkix.Name{CommonName: host},
		DNSNames:     []string{host},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
	}, caCert, &leafKey.PublicKey, caKey)
	if err != nil {
		t.Fatal(err)
	}
	upstream, err := tls.Listen("tcp", "127.0.0.1:0", &tls.Config{
		Certificates: []tls.Certificate{{Certificate: [][]byte{leafDER}, PrivateKey: leafKey}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer upstream.Close()
	go func() {
		for {
			c, err := upstream.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				io.Copy(c, c) //nolint:errcheck // echo until either side closes
			}()
		}
	}()

	mintRoot, err := ritm.NewMintingRoot("RITM Test Bump Root", ritm.KeyECDSA)
	if err != nil {
		t.Fatal(err)
	}
	mintPool := x509.NewCertPool()
	mintPool.AddCert(mintRoot.Certificate())
	dial := func(cfg ritm.InterceptConfig) error {
		it, err := agent.NewInterceptor("127.0.0.1:0", cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		conn, err := tls.Dial("tcp", it.Addr().String(), &tls.Config{ServerName: host, RootCAs: mintPool})
		if err != nil {
			return err
		}
		return conn.Close()
	}

	control := interceptConfig(mintRoot, upstream.Addr().String())
	control.UpstreamTLS = nil
	if err := dial(control); err != nil {
		t.Fatalf("control: an unverified upstream leg should bump: %v", err)
	}

	cfg := interceptConfig(mintRoot, upstream.Addr().String())
	upstreamErrs := make(chan error, 4)
	cfg.OnError = func(err error) {
		select {
		case upstreamErrs <- err:
		default:
		}
	}
	if err := dial(cfg); err == nil {
		t.Fatal("an upstream outside the system roots was bumped")
	}
	select {
	case err := <-upstreamErrs:
		var unknown x509.UnknownAuthorityError
		if !errors.As(err, &unknown) {
			t.Errorf("upstream leg failed with %v, want an unknown-authority verification error", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("no upstream error reported")
	}
}
