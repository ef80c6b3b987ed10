package main

import (
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	mrand "math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"time"

	"ritm/internal/cdn"
	"ritm/internal/cert"
	"ritm/internal/cryptoutil"
	"ritm/internal/dictionary"
	"ritm/internal/interception"
	"ritm/internal/ra"
	"ritm/internal/ritmclient"
	"ritm/internal/serial"
	"ritm/internal/storage"
	"ritm/internal/tlssim"
)

// The per-layer probes of a traced run. They run after the measured
// window, quiesced, one goroutine, against the stack the workload just
// used, and time single public functions; each workload probes the layers
// it exercises and leaves the others at 0.

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink any

// durationsMS runs fn n times and returns each call's duration.
func durationsMS(n int, fn func(i int) error) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(i); err != nil {
			return nil, err
		}
		out = append(out, ms(time.Since(start)))
	}
	return out, nil
}

// raProbes times the status cache's two paths on agent.
func raProbes(rep *report, agent *ra.RA, mix *lookupMix, seed uint64) {
	hot := mix.hot[0]
	lookup := func(sn serial.Number) {
		st, _, err := agent.StatusEncoded(caID, sn)
		if err != nil {
			panic(err) // the window just ran millions of these
		}
		sink = st
	}
	lookup(hot)
	rep.set("ra.status_hit_ns", timeOp(200000, func() { lookup(hot) }))
	rep.set("ra.status_hit_allocs", allocsPerOp(1000, func() { lookup(hot) }))
	rng := newRNG(seed, streamProbe)
	// The serial is drawn inside the timed call; a draw is ~20 ns and
	// 1 alloc against a miss's microseconds.
	rep.set("ra.status_miss_ns", timeOp(20000, func() { lookup(randomSerial(rng)) }))
	rep.set("ra.status_miss_allocs", allocsPerOp(1000, func() { lookup(randomSerial(rng)) })-1)
}

// dictionaryProbes times proof construction, encoding and client-side
// verification on store (heap form).
func dictionaryProbes(rep *report, store *ra.Store, mix *lookupMix, ctl *control, seed uint64) error {
	present, rng := mix.hot[0], newRNG(seed, streamProbe+1)
	rep.set("dictionary.prove_present_ns", timeOp(50000, func() { sink, _ = store.Prove(caID, present) }))
	rep.set("dictionary.prove_absent_ns", timeOp(50000, func() { sink, _ = store.Prove(caID, randomSerial(rng)) }))
	st, err := store.Prove(caID, present)
	if err != nil {
		return err
	}
	st.Subject = present
	rep.set("dictionary.status_encode_ns", timeOp(50000, func() { sink = st.Encode() }))
	now, pub := ctl.clk.Now().Unix(), ctl.ca.PublicKey()
	if res, err := st.Check(present, pub, now); err != nil || res != dictionary.CheckRevoked {
		return fmt.Errorf("status check probe: %v, %v", res, err)
	}
	rep.set("dictionary.status_check_us", timeOp(2000, func() { sink, _ = st.Check(present, pub, now) })/1e3)
	return nil
}

// cryptoProbes times the primitives under rebuilds and status checks.
func cryptoProbes(rep *report) error {
	a, b := cryptoutil.HashBytes([]byte("left")), cryptoutil.HashBytes([]byte("right"))
	rep.set("cryptoutil.hash_node_ns", timeOp(500000, func() { a = cryptoutil.HashNode(a, b) }))
	sink = a
	signer, err := cryptoutil.NewSigner(nil)
	if err != nil {
		return err
	}
	msg := make([]byte, 128) // about a signed root's payload
	var sig []byte
	rep.set("cryptoutil.sign_us", timeOp(2000, func() { sig = signer.Sign(msg) })/1e3)
	rep.set("cryptoutil.verify_us", timeOp(2000, func() { sink = cryptoutil.Verify(signer.Public(), msg, sig) })/1e3)
	return nil
}

// captureClientHello returns the first record header and handshake
// message a crypto/tls client sends for cfg.
func captureClientHello(cfg *tls.Config) (hdr, msg []byte, err error) {
	c1, c2 := net.Pipe()
	defer c2.Close()
	go func() {
		tls.Client(c1, cfg).Handshake() //nolint:errcheck // aborted by closing the pipe
		c1.Close()
	}()
	hdr = make([]byte, interception.RecordHeaderLen)
	if _, err := io.ReadFull(c2, hdr); err != nil {
		return nil, nil, err
	}
	_, length, ok := interception.ParseRecordHeader(hdr)
	if !ok {
		return nil, nil, errors.New("captured bytes are not a TLS record")
	}
	msg = make([]byte, length)
	if _, err := io.ReadFull(c2, msg); err != nil {
		return nil, nil, err
	}
	return hdr, msg, nil
}

func (s *bumpStack) probes(cfg runConfig, rep *report) error {
	first := &s.pki.sites[0]
	hdr, hello, err := captureClientHello(first.client)
	if err != nil {
		return fmt.Errorf("capture hello: %w", err)
	}
	if ch, err := interception.ParseClientHello(hello); err != nil || string(ch.ServerName) != first.host {
		return fmt.Errorf("captured hello parses to %q, %v", ch.ServerName, err)
	}
	rep.set("interception.parse_hello_ns", timeOp(200000, func() {
		_, _, ok := interception.ParseRecordHeader(hdr)
		ch, _ := interception.ParseClientHello(hello)
		sink = ok && len(ch.ServerName) > 0
	}))
	rep.set("interception.identity_ns", timeOp(200000, func() {
		_, sn, _ := interception.IdentityFromX509(first.leaf.Leaf)
		sink = sn
	}))

	minter := interception.NewMinter(s.mintRoot, 0)
	minted, err := minter.CertFor(first.host, first.leaf.Leaf)
	if err != nil {
		return err
	}
	rep.set("interception.mint_hit_us", timeOp(100000, func() { sink, _ = minter.CertFor(first.host, first.leaf.Leaf) })/1e3)
	cold := len(s.pki.sites) - 1
	if cold > 256 {
		cold = 256
	}
	i := 0
	rep.set("interception.mint_miss_us", timeOp(cold, func() {
		i++
		sink, _ = minter.CertFor(s.pki.sites[i].host, s.pki.sites[i].leaf.Leaf)
	})/1e3)

	// The two TLS legs of a bump, each on its own: a direct dial to the
	// upstream with the interceptor's upstream configuration (no chain
	// validation, session cache on) over the workload's host mix, and a
	// dial to a plain tls.Server holding a minted leaf.
	const legs = 300
	upCfg := &tls.Config{InsecureSkipVerify: true, ClientSessionCache: tls.NewLRUClientSessionCache(0)} //nolint:gosec // mirrors interception.Config.UpstreamTLS's default
	zipf := mrand.NewZipf(newRNG(cfg.seed, streamProbe+2), zipfS, 1, uint64(len(s.pki.sites)-2))
	up, err := durationsMS(legs, func(int) error {
		c := upCfg.Clone()
		c.ServerName = s.pki.sites[zipf.Uint64()].host
		conn, err := tls.DialWithDialer(bumpDialer, "tcp", s.upstream.addr(), c)
		if err != nil {
			return err
		}
		return conn.Close()
	})
	if err != nil {
		return fmt.Errorf("upstream leg: %w", err)
	}
	mintedSrv, err := newTLSEcho(&tls.Config{MinVersion: tls.VersionTLS12, Certificates: []tls.Certificate{*minted}})
	if err != nil {
		return err
	}
	defer mintedSrv.close()
	down, err := durationsMS(legs, func(int) error {
		conn, err := tls.DialWithDialer(bumpDialer, "tcp", mintedSrv.addr(), first.client)
		if err != nil {
			return err
		}
		return conn.Close()
	})
	if err != nil {
		return fmt.Errorf("client leg: %w", err)
	}
	rep.setN("interception.upstream_leg_ms", median(up), legs)
	rep.setN("interception.client_leg_ms", median(down), legs)

	raProbes(rep, s.agent, s.mix, cfg.seed)
	v := rep.values
	p50, ratio := v["latency_p50_ms"], v["interception.mint_hit_ratio"]
	rep.set("interception.bump_added_ms", p50-median(up))
	stages := median(up) + median(down) +
		(ratio*v["interception.mint_hit_us"]+(1-ratio)*v["interception.mint_miss_us"])/1e3 +
		(v["interception.parse_hello_ns"]+v["interception.identity_ns"]+v["ra.status_hit_ns"])/1e6
	rep.set("interception.unattributed_ms", p50-stages)
	return nil
}

func (s *injectStack) probes(cfg runConfig, rep *report) error {
	direct := &tlssim.Config{Pool: s.client.Pool, ServerName: injectServerName, Time: s.ctl.clk.Now}
	d, err := durationsMS(500, func(int) error {
		conn, err := tlssim.Dial("tcp", s.server.addr(), direct)
		if err != nil {
			return err
		}
		defer conn.Close()
		return echoOnce(conn, 0x42)
	})
	if err != nil {
		return fmt.Errorf("direct handshake: %w", err)
	}
	rep.setN("tlssim.direct_handshake_ms", median(d), len(d))
	rep.set("ra.proxy_added_ms", rep.values["latency_p50_ms"]-median(d))

	_, enc, err := s.agent.StatusEncoded(caID, s.leaf.SerialNumber)
	if err != nil {
		return err
	}
	state := &tlssim.ConnectionState{
		ServerName:   injectServerName,
		PeerChain:    cert.Chain{s.leaf},
		ServerCA:     caID,
		ServerSerial: s.leaf.SerialNumber,
	}
	verifier := ritmclient.NewVerifier(s.client)
	if err := verifier.Handle(enc, state); err != nil {
		return fmt.Errorf("verify probe: %w", err)
	}
	rep.set("ritmclient.verify_us", timeOp(2000, func() { sink = verifier.Handle(enc, state) })/1e3)

	raProbes(rep, s.agent, s.mix, cfg.seed)
	if err := dictionaryProbes(rep, s.agent.Store(), s.mix, s.ctl, cfg.seed); err != nil {
		return err
	}
	return cryptoProbes(rep)
}

func (s *statusStack) probes(cfg runConfig, rep *report) error {
	raProbes(rep, s.writer, s.mix, cfg.seed)
	if err := dictionaryProbes(rep, s.writer.Store(), s.mix, s.ctl, cfg.seed); err != nil {
		return err
	}
	rng := newRNG(cfg.seed, streamProbe+3)
	rep.set("dictionary.mapped_prove_absent_ns", timeOp(50000, func() { sink, _ = s.reader.Store().Prove(caID, randomSerial(rng)) }))
	rep.set("ra.heap_mb_writer", float64(s.writer.Store().MemoryFootprint())/(1<<20))
	rep.set("ra.mapped_mb_reader", float64(s.reader.Store().MappedBytes())/(1<<20))
	if err := storageProbes(rep, s.writer, s.dir, nil); err != nil {
		return err
	}
	return cryptoProbes(rep)
}

// storageProbes times the durable tier on a benchmark-owned log beside
// the workload's data: WAL appends of one cycle's update record,
// checkpoint encoding and installation, and mapping the result.
func storageProbes(rep *report, writer *ra.RA, dir string, msg *dictionary.IssuanceMessage) error {
	replica, err := writer.Store().Replica(caID)
	if err != nil {
		return err
	}
	var state []byte
	enc, _ := durationsMS(3, func(int) error { state = replica.PersistentStateV2(); return nil })
	rep.set("dictionary.checkpoint_encode_ms", median(enc))
	rep.set("dictionary.checkpoint_bytes", float64(len(state)))

	backend := storage.NewFileBackend(filepath.Join(dir, "probe"), false)
	lg, err := backend.Open("probe")
	if err != nil {
		return err
	}
	defer lg.Destroy() //nolint:errcheck // the whole data directory is removed at teardown
	install, err := durationsMS(3, func(int) error { return lg.Checkpoint(state) })
	if err != nil {
		return err
	}
	rep.set("storage.checkpoint_install_ms", median(install))
	mapped, err := durationsMS(20, func(int) error {
		mc, err := backend.Map("probe")
		if err != nil {
			return err
		}
		sink = len(mc.State)
		return mc.Close()
	})
	if err != nil {
		return err
	}
	rep.set("storage.map_ms", median(mapped))
	if msg == nil {
		return nil
	}
	record := (&dictionary.UpdateRecord{Msg: msg}).Encode()
	logBytes := func() int64 {
		var total int64
		filepath.Walk(filepath.Join(dir, "probe"), func(_ string, info os.FileInfo, err error) error { //nolint:errcheck // best-effort size probe
			if err == nil && !info.IsDir() {
				total += info.Size()
			}
			return nil
		})
		return total
	}
	const appends = 200
	sizeBefore := logBytes()
	var appendErr error
	ns := timeOp(appends, func() {
		if err := lg.Append(record); err != nil {
			appendErr = err
		}
	})
	if appendErr != nil {
		return appendErr
	}
	rep.set("storage.wal_append_us", ns/1e3)
	rep.set("storage.bytes_written_per_cycle", float64(logBytes()-sizeBefore)/appends)
	return nil
}

func (s *churnStack) probes(cfg runConfig, rep *report, gen *serial.Generator, last *dictionary.IssuanceMessage) error {
	// Benchmark-owned replica applying fresh cycles' messages: the
	// rebuild every copy of the dictionary (CA, origin, writers) pays.
	replica := dictionary.NewReplicaWithLayout(caID, s.ctl.ca.PublicKey(), cfg.layout)
	resp, err := s.ctl.dp.Pull(caID, 0)
	if err != nil {
		return err
	}
	if err := replica.UpdateWithBounds(resp.Issuance, resp.Bounds); err != nil {
		return err
	}
	var only []float64
	for i := 0; i < 10; i++ {
		msg, err := s.ctl.ca.Revoke(gen.NextN(churnBatch)...)
		if err != nil {
			return err
		}
		start := time.Now()
		if err := replica.UpdateWithBounds(msg, nil); err != nil {
			return err
		}
		only = append(only, ms(time.Since(start)))
	}
	rep.setN("dictionary.replica_update_ms", median(only), len(only))

	encMsg := last.Encode()
	rep.set("dictionary.decode_issuance_us", timeOp(2000, func() { sink, _ = dictionary.DecodeIssuanceMessageView(encMsg) })/1e3)
	fresh, err := s.ctl.ca.Authority().Statement(s.ctl.clk.Now().Unix())
	if err != nil {
		return err
	}
	encResp := (&cdn.PullResponse{Issuance: last, Freshness: fresh}).Encoded()
	rep.set("cdn.pull_decode_us", timeOp(2000, func() { sink, _ = cdn.DecodePullResponse(encResp) })/1e3)

	// Pulls of a one-batch suffix at the origin and through a PoP: cold
	// keys (each a distinct from) travel PoP → region → origin, the warm
	// key is answered from the PoP's cache.
	count := s.ctl.ca.Authority().Count()
	originClient := &cdn.HTTPClient{BaseURL: s.origin.url()}
	popClient := &cdn.HTTPClient{BaseURL: s.pops[0].url()}
	pull := func(c *cdn.HTTPClient, from uint64) error {
		r, err := c.Pull(caID, from)
		sink = r
		return err
	}
	d, err := durationsMS(30, func(i int) error { return pull(originClient, count-churnBatch-uint64(i)) })
	if err != nil {
		return fmt.Errorf("origin pull: %w", err)
	}
	rep.setN("cdn.origin_pull_ms", median(d), len(d))
	d, err = durationsMS(30, func(i int) error { return pull(popClient, count-churnBatch-100-uint64(i)) })
	if err != nil {
		return fmt.Errorf("edge pull miss: %w", err)
	}
	rep.setN("cdn.edge_pull_miss_ms", median(d), len(d))
	d, err = durationsMS(300, func(int) error { return pull(popClient, count-churnBatch-100) })
	if err != nil {
		return fmt.Errorf("edge pull hit: %w", err)
	}
	rep.setN("cdn.edge_pull_hit_us", median(d)*1e3, len(d))
	root := func() {
		r, err := s.pops[0].edge.LatestRoot(caID)
		if err != nil {
			panic(err) // the tier served every cycle of the window
		}
		sink = r
	}
	rep.set("cdn.edge_root_us", timeOp(300, root)/1e3)
	rep.set("cdn.edge_root_allocs", allocsPerOp(100, root))

	rep.set("ra.heap_mb_writer", float64(s.writers[1].Store().MemoryFootprint())/(1<<20))
	rep.set("ra.mapped_mb_reader", float64(s.reader.Store().MappedBytes())/(1<<20))
	if err := storageProbes(rep, s.writers[0], s.dir, last); err != nil {
		return err
	}
	if err := dictionaryProbes(rep, s.writers[1].Store(), s.mix, s.ctl, cfg.seed); err != nil {
		return err
	}
	return cryptoProbes(rep)
}
