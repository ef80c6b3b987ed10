// IoT gateway: long-lived connections and the mid-connection revocation
// check (§II "Desired Properties", §V "Race Condition").
//
// Hardware-limited devices cannot store revocation lists and are reluctant
// to re-handshake, so they hold one long-lived TLS connection open. Their
// network gateway runs a Revocation Agent (the close-to-the-clients
// deployment of §IV): every ∆ it piggybacks a fresh revocation status onto
// server traffic. When the broker's certificate is revoked *while the
// connection is up*, the next status is a presence proof and the device
// tears the connection down within 2∆ — the race-condition protection the
// paper claims as a first.
//
//	go run ./examples/iotgateway
package main

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"ritm"
	"ritm/internal/tlssim"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// ∆ = 1 s so the example completes quickly; the protocol is identical
	// at the paper's 10 s.
	const delta = time.Second

	dp := ritm.NewDistributionPoint(nil)
	authority, err := ritm.NewCA(ritm.CAConfig{ID: "IoTCA", Delta: delta, Publisher: dp})
	if err != nil {
		return err
	}
	if err := dp.RegisterCA("IoTCA", authority.PublicKey()); err != nil {
		return err
	}
	if err := authority.PublishRoot(); err != nil {
		return err
	}
	// The CA publishes at every period boundary of its signed root, and
	// the gateway pulls once inside every period of the same root.
	refresher := authority.StartRefresher(nil)
	defer refresher.Shutdown()

	gateway, err := ritm.NewRA(ritm.RAConfig{
		Roots:  []*ritm.Certificate{authority.RootCertificate()},
		Origin: ritm.NewEdgeServer(dp, 0, nil),
		Delta:  delta,
	})
	if err != nil {
		return err
	}
	if err := gateway.SyncOnce(); err != nil {
		return err
	}
	fetcher := gateway.StartFetcher(ritm.FetcherOptions{})
	defer fetcher.Shutdown()

	// The IoT broker: a TLS server streaming telemetry acknowledgements.
	brokerKey, err := ritm.NewSigner()
	if err != nil {
		return err
	}
	brokerCert, err := authority.IssueServerCertificate("broker.iot.example", brokerKey.Public())
	if err != nil {
		return err
	}
	brokerAddr, stopBroker, err := startBroker(&ritm.TLSConfig{
		Chain: ritm.Chain{brokerCert},
		Key:   brokerKey,
	})
	if err != nil {
		return err
	}
	defer stopBroker()

	proxy, err := gateway.NewProxy("127.0.0.1:0", brokerAddr)
	if err != nil {
		return err
	}
	defer proxy.Close()
	fmt.Printf("gateway RA %v in front of broker %v (∆=%v)\n", proxy.Addr(), brokerAddr, delta)

	// The device: zero revocation storage, one long-lived connection.
	pool, err := ritm.NewPool(authority.RootCertificate())
	if err != nil {
		return err
	}
	device, err := ritm.Dial("tcp", proxy.Addr().String(), "broker.iot.example", &ritm.ClientConfig{
		Pool:          pool,
		RequireStatus: true,
	})
	if err != nil {
		return err
	}
	defer device.Close()
	fmt.Printf("device connected; statuses verified so far: %d\n", device.Verifier().ValidCount())

	// Stream telemetry for a few ∆ periods: the gateway keeps piggybacking
	// fresh absence proofs on the broker's acknowledgements.
	connectedAt := time.Now()
	buf := make([]byte, 64)
	for i := 0; i < 3; i++ {
		if _, err := device.Write([]byte("telemetry")); err != nil {
			return err
		}
		if _, err := device.Read(buf); err != nil {
			return err
		}
		time.Sleep(delta)
	}
	before := device.Verifier().ValidCount()
	fmt.Printf("after %.0f s connected: %d statuses verified (≥1 per ∆)\n",
		time.Since(connectedAt).Seconds(), before)
	if before < 2 {
		return fmt.Errorf("expected periodic statuses on the established connection")
	}

	// The broker's key leaks. The CA revokes mid-connection.
	if _, err := authority.RevokeCertificate(brokerCert); err != nil {
		return err
	}
	revokedAt := time.Now()
	fmt.Printf("certificate %v revoked while the connection is up\n", brokerCert.SerialNumber)

	// Keep using the connection; it must die within ~2∆.
	var readErr error
	for time.Since(revokedAt) < 10*delta {
		if _, err := device.Write([]byte("telemetry")); err != nil {
			readErr = err
			break
		}
		if _, err := device.Read(buf); err != nil {
			readErr = err
			break
		}
	}
	if readErr == nil {
		return fmt.Errorf("connection survived revocation")
	}
	if !errors.Is(readErr, tlssim.ErrStatusRejected) && !errors.Is(readErr, net.ErrClosed) {
		fmt.Printf("connection interrupted with: %v\n", readErr)
	}
	fmt.Printf("established connection interrupted %.1f s after revocation (2∆ = %.0f s)\n",
		time.Since(revokedAt).Seconds(), (2 * delta).Seconds())
	if !device.Verifier().Revoked() {
		return fmt.Errorf("device never saw the presence proof")
	}
	fmt.Println("device verified the presence proof itself — no trust in gateway or CDN required")
	return nil
}

// startBroker runs the echo-style broker.
func startBroker(cfg *ritm.TLSConfig) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				conn := tlssim.Server(raw, cfg)
				defer conn.Close()
				buf := make([]byte, 256)
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
	return ln.Addr().String(), func() { ln.Close(); wg.Wait() }, nil
}
