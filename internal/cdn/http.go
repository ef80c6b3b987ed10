package cdn

import (
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"ritm/internal/cryptoutil"
	"ritm/internal/dictionary"
)

// HTTP transport for the dissemination network, the "simple HTTP(S)-based
// API" of §VI. Endpoints:
//
//	GET /v1/cas                  → newline-separated CA identifiers
//	GET /v1/pull?ca=X&from=N     → binary PullResponse
//	GET /v1/root?ca=X            → binary SignedRoot
//
// Payloads use the deterministic wire encoding; HTTP is only the carrier,
// so any real CDN (which caches opaque bodies by URL) can serve them. The
// cache key (ca, from) appears entirely in the URL, matching EdgeServer's
// cache keying, and the cache-contract headers make a third-party CDN
// behave exactly like an EdgeServer tier:
//
//	Cache-Control: max-age=<ttl>   freshness lifetime, from the edge TTL
//	Age: <seconds>                 time already spent in the edge cache
//	ETag / If-None-Match           strong validator on /v1/root (the
//	                               signed-root hash), 304 on match
//	Last-Modified / If-Modified-Since  weak-validator fallback on /v1/root
//	                               (the root's signing time) for caches
//	                               that strip ETags; If-None-Match wins
//	                               when both are present (RFC 9110)
//	X-RITM-Error: unknown-ca|ahead typed sentinel carried out of band so
//	                               clients never sniff error strings
//
// maxBody bounds response bodies read by HTTPClient. A response larger
// than this is an explicit error, never a silent truncation: a truncated
// PullResponse would fail decoding with a misleading "malformed wire"
// error (or worse, decode cleanly if the cut falls on a field boundary).
const maxBody = 1 << 28

// bodyLimit is maxBody as a variable so the overflow test can exercise
// the cap without streaming 256 MB.
var bodyLimit = maxBody

// Error-code header values; the wire form of the typed sentinels.
const (
	errCodeUnknownCA     = "unknown-ca"
	errCodeAhead         = "ahead"
	errCodeNoReplication = "no-replication"
)

// errorHeader is the out-of-band error channel: HTTP status codes are too
// coarse to round-trip typed sentinels (a middlebox 404 is not an
// unknown-CA answer), so the handler names the sentinel explicitly and the
// client reconstructs from the name.
const errorHeader = "X-RITM-Error"

// statusFor maps dissemination errors to HTTP status codes by sentinel
// identity (errors.Is), never by message content.
func statusFor(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, ErrUnknownCA):
		return http.StatusNotFound
	case errors.Is(err, ErrAhead):
		return http.StatusConflict
	case errors.Is(err, ErrNoReplication):
		return http.StatusNotImplemented
	default:
		return http.StatusInternalServerError
	}
}

// errCode returns the X-RITM-Error value for err ("" for untyped errors).
func errCode(err error) string {
	switch {
	case errors.Is(err, ErrUnknownCA):
		return errCodeUnknownCA
	case errors.Is(err, ErrAhead):
		return errCodeAhead
	case errors.Is(err, ErrNoReplication):
		return errCodeNoReplication
	default:
		return ""
	}
}

// sentinelFor is errCode's inverse: the typed sentinel named by an
// X-RITM-Error value (nil for unknown names).
func sentinelFor(code string) error {
	switch code {
	case errCodeUnknownCA:
		return ErrUnknownCA
	case errCodeAhead:
		return ErrAhead
	case errCodeNoReplication:
		return ErrNoReplication
	default:
		return nil
	}
}

// writeError reports err with its mapped status code and, for typed
// sentinels, the X-RITM-Error header.
func writeError(w http.ResponseWriter, err error) {
	if code := errCode(err); code != "" {
		w.Header().Set(errorHeader, code)
	}
	http.Error(w, err.Error(), statusFor(err))
}

// rootETag is the strong validator for /v1/root: the hash of the full
// signed-root encoding (root hash, count, anchor, timestamp, signature),
// quoted per RFC 9110. Byte-identical roots — and only those — share it.
func rootETag(encoded []byte) string {
	return `"` + cryptoutil.HashBytes(encoded).String() + `"`
}

// etagMatches reports whether an If-None-Match header value matches etag
// (a list of quoted validators, or the wildcard). It scans the list
// manually — same semantics as splitting on commas and trimming space per
// candidate — because it runs per conditional request on the root path and
// must not allocate.
func etagMatches(header, etag string) bool {
	if header == "*" {
		return true
	}
	for len(header) > 0 {
		candidate := header
		if i := strings.IndexByte(header, ','); i >= 0 {
			candidate, header = header[:i], header[i+1:]
		} else {
			header = ""
		}
		for len(candidate) > 0 && (candidate[0] == ' ' || candidate[0] == '\t') {
			candidate = candidate[1:]
		}
		for len(candidate) > 0 && (candidate[len(candidate)-1] == ' ' || candidate[len(candidate)-1] == '\t') {
			candidate = candidate[:len(candidate)-1]
		}
		if candidate == etag {
			return true
		}
	}
	return false
}

// queryParam extracts one query parameter without materializing the whole
// url.Values map; the returned value shares rawQuery's backing unless it
// needed unescaping. Semantics match url.ParseQuery for the keys the API
// uses ('&'-separated pairs, '='-cut, percent/plus unescaping).
func queryParam(rawQuery, key string) string {
	for len(rawQuery) > 0 {
		pair := rawQuery
		if i := strings.IndexByte(rawQuery, '&'); i >= 0 {
			pair, rawQuery = rawQuery[:i], rawQuery[i+1:]
		} else {
			rawQuery = ""
		}
		k, v, _ := strings.Cut(pair, "=")
		if strings.IndexByte(k, '%') >= 0 || strings.IndexByte(k, '+') >= 0 {
			dec, err := url.QueryUnescape(k)
			if err != nil {
				continue
			}
			k = dec
		}
		if k != key {
			continue
		}
		if strings.IndexByte(v, '%') < 0 && strings.IndexByte(v, '+') < 0 {
			return v
		}
		dec, err := url.QueryUnescape(v)
		if err != nil {
			return ""
		}
		return dec
	}
	return ""
}

// rootRep memoizes everything /v1/root derives from one signed root: the
// encoding, both representation validators, and the formatted signing
// time. Roots rotate once per ∆ while the path is polled by every
// downstream tier, so the derivation runs once per version instead of per
// request — the steady-state (revalidating) request allocates nothing
// here.
//
// The memo is keyed on *SignedRoot pointer identity, which is stable for
// exactly one dictionary version at every origin type: a DistributionPoint
// returns the replica's adopted root pointer (replaced only by a verified
// update; freshness refreshes republish the same root), an EdgeServer
// passes its upstream's pointer through, and HTTPClient returns its cached
// decode on 304 — so the stability propagates tier by tier.
type rootRep struct {
	root         *dictionary.SignedRoot
	encoded      []byte
	etag         string
	gzipEtag     string
	lastModified string
	signedAt     time.Time
	// Pre-built single-element header values, assigned directly into the
	// response header map under their canonical keys. Header.Set would
	// build a fresh []string per call — three allocations per request on a
	// path pinned to at most five (TestRootConditionalAllocsPinned).
	etagVal         []string
	gzipEtagVal     []string
	lastModifiedVal []string
}

// rootCacheControl is the shared Cache-Control value for /v1/root
// responses (see the handler comment for why no-cache).
var rootCacheControl = []string{"no-cache"}

// rootMemo caches the latest rootRep per CA. Reads vastly outnumber the
// once-per-∆ rotation, so a RWMutex-guarded map (string-keyed lookups
// don't allocate) fits better than sync.Map (whose Load boxes the key).
type rootMemo struct {
	mu   sync.RWMutex
	byCA map[dictionary.CAID]*rootRep
}

func (m *rootMemo) rep(ca dictionary.CAID, root *dictionary.SignedRoot) *rootRep {
	m.mu.RLock()
	e := m.byCA[ca]
	m.mu.RUnlock()
	if e != nil && e.root == root {
		return e
	}
	encoded := root.Encode()
	etag := rootETag(encoded)
	signedAt := time.Unix(root.Time, 0).UTC()
	e = &rootRep{
		root:         root,
		encoded:      encoded,
		etag:         etag,
		gzipEtag:     gzipETagVariant(etag),
		lastModified: signedAt.Format(http.TimeFormat),
		signedAt:     signedAt,
	}
	e.etagVal = []string{e.etag}
	e.gzipEtagVal = []string{e.gzipEtag}
	e.lastModifiedVal = []string{e.lastModified}
	m.mu.Lock()
	m.byCA[ca] = e
	m.mu.Unlock()
	return e
}

// HandlerOptions configures the HTTP adapter.
type HandlerOptions struct {
	// Now is the clock used by the If-Modified-Since guard (a signing
	// second is "elapsed" relative to this clock); nil = time.Now.
	// Deployments whose dissemination tier runs on a virtual or tightly
	// synced clock pass it here; with the default wall clock, an edge
	// running behind the CA only costs full 200 bodies (the fallback
	// stays quiet), never a stale 304.
	Now func() time.Time
	// Gzip enables opt-in response compression for clients advertising
	// Accept-Encoding: gzip. Off by default: large pull suffixes are the
	// target (a mass-revocation catch-up body is highly compressible
	// framing around serials), and deployments that terminate compression
	// in their CDN should leave it off here. Responses on compressible
	// endpoints carry Vary: Accept-Encoding whenever Gzip is on — even
	// when served identity — so shared caches never serve a gzipped body
	// to a client that cannot decode it, and compressed representations
	// get a per-encoding ETag variant ("<hash>-gzip") per RFC 9110 §8.8.3
	// (a strong validator names one representation, encoding included).
	Gzip bool
	// GzipMinSize is the smallest body worth compressing (0 = 1 KiB).
	// Small bodies — roots, empty suffixes — cost more in CPU and headers
	// than the bytes saved.
	GzipMinSize int
}

// NewHandler adapts an Origin to the HTTP API. Serve it on an edge server or
// on the distribution point itself. When the origin reports cache metadata
// (MetaOrigin — every EdgeServer does), pull responses carry Cache-Control
// and Age headers derived from the edge TTL, so any HTTP cache in front
// expires entries exactly when the edge would.
func NewHandler(origin Origin, opts HandlerOptions) http.Handler {
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	gz := gzipConfig{enabled: opts.Gzip, minSize: opts.GzipMinSize}
	if gz.minSize <= 0 {
		gz.minSize = 1024
	}
	meta, _ := origin.(MetaOrigin)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/cas", func(w http.ResponseWriter, r *http.Request) {
		cas, err := origin.CAs()
		if err != nil {
			writeError(w, err)
			return
		}
		var sb strings.Builder
		for _, ca := range cas {
			sb.WriteString(string(ca))
			sb.WriteByte('\n')
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, sb.String())
	})
	mux.HandleFunc("GET /v1/pull", func(w http.ResponseWriter, r *http.Request) {
		ca := dictionary.CAID(queryParam(r.URL.RawQuery, "ca"))
		from, err := strconv.ParseUint(queryParam(r.URL.RawQuery, "from"), 10, 64)
		if ca == "" || err != nil {
			http.Error(w, "cdn: pull requires ca and numeric from", http.StatusBadRequest)
			return
		}
		var resp *PullResponse
		if meta != nil {
			var pm PullMeta
			resp, pm, err = meta.PullWithMeta(ca, from)
			if err == nil {
				setCacheHeaders(w, pm)
			} else {
				setNegativeCacheHeader(w, err, pm.NegativeTTL)
			}
		} else {
			resp, err = origin.Pull(ca, from)
		}
		if err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		gz.write(w, r, resp.Encoded())
	})
	memo := &rootMemo{byCA: make(map[dictionary.CAID]*rootRep)}
	mux.HandleFunc("GET /v1/root", func(w http.ResponseWriter, r *http.Request) {
		ca := dictionary.CAID(queryParam(r.URL.RawQuery, "ca"))
		if ca == "" {
			http.Error(w, "cdn: root requires ca", http.StatusBadRequest)
			return
		}
		root, err := origin.LatestRoot(ca)
		if err != nil {
			if meta != nil {
				setNegativeCacheHeader(w, err, meta.NegativeTTL())
			}
			writeError(w, err)
			return
		}
		rep := memo.rep(ca, root)
		// A compressed representation is a different representation: it
		// gets its own strong validator (RFC 9110 §8.8.3), and a cached
		// validator for either representation revalidates the same root —
		// both variants are derived from the same signed bytes.
		willGzip := gz.wants(r, len(rep.encoded))
		h := w.Header()
		if gz.enabled {
			h.Add("Vary", "Accept-Encoding")
		}
		// Memoized single-element values under canonical keys: equivalent
		// to Header.Set but without the per-call []string, keeping the
		// conditional-request path allocation-free in the handler.
		if willGzip {
			h["Etag"] = rep.gzipEtagVal
		} else {
			h["Etag"] = rep.etagVal
		}
		// Last-Modified (the root's signing time) is the weak-validator
		// fallback for caches that strip ETags; its one-second granularity
		// means a root re-signed within the same second revalidates as
		// unmodified, so the strong ETag stays authoritative whenever both
		// are present.
		h["Last-Modified"] = rep.lastModifiedVal
		// no-cache forbids front CDNs from heuristically caching roots —
		// they may only revalidate against the validators, which is exactly
		// what HTTPClient does. RITM edges do the same: an EdgeServer
		// forwards every root request upstream.
		h["Cache-Control"] = rootCacheControl
		if inm := r.Header.Get("If-None-Match"); inm != "" {
			// RFC 9110 §13.1.3: when If-None-Match is present,
			// If-Modified-Since MUST be ignored. Either encoding's
			// validator revalidates the root — both name the same signed
			// bytes.
			if etagMatches(inm, rep.etag) || etagMatches(inm, rep.gzipEtag) {
				w.WriteHeader(http.StatusNotModified)
				return
			}
		} else if ims := r.Header.Get("If-Modified-Since"); ims != "" {
			// The date is only a usable validator once its second has fully
			// elapsed: while the signing second is still current the CA may
			// re-sign without the date moving (the weak-validator caveat of
			// RFC 9110 §8.8.2.2), so serve the full body until then. The
			// residual blind spot — two DIFFERENT roots signed within one
			// already-elapsed second — is inherent to date granularity;
			// consistency-checking monitors must revalidate with ETags or
			// unconditional fetches, never the fallback validator alone.
			if since, err := http.ParseTime(ims); err == nil && !rep.signedAt.After(since) &&
				now().Unix() > root.Time {
				w.WriteHeader(http.StatusNotModified)
				return
			}
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		if willGzip {
			gz.compress(w, rep.encoded)
		} else {
			w.Write(rep.encoded)
		}
	})
	replicator, _ := origin.(Replicator)
	mux.HandleFunc("GET /v1/replicate", func(w http.ResponseWriter, r *http.Request) {
		ca := dictionary.CAID(queryParam(r.URL.RawQuery, "ca"))
		fromLSN, err := strconv.ParseUint(queryParam(r.URL.RawQuery, "from_lsn"), 10, 64)
		if ca == "" || err != nil {
			http.Error(w, "cdn: replicate requires ca and numeric from_lsn", http.StatusBadRequest)
			return
		}
		if replicator == nil {
			writeError(w, fmt.Errorf("%w (origin %T)", ErrNoReplication, origin))
			return
		}
		resp, err := replicator.Replicate(ca, fromLSN)
		if err != nil {
			writeError(w, err)
			return
		}
		// Replication is point-to-point leader→follower state transfer; a
		// cached response would hand a follower yesterday's log position.
		w.Header().Set("Cache-Control", "no-store")
		w.Header().Set("Content-Type", "application/octet-stream")
		gz.write(w, r, resp.Encode())
	})
	return mux
}

// gzipConfig implements the handler's opt-in compression policy.
type gzipConfig struct {
	enabled bool
	minSize int
}

// wants reports whether this request+body should be compressed.
func (g gzipConfig) wants(r *http.Request, size int) bool {
	return g.enabled && size >= g.minSize && acceptsGzip(r.Header.Get("Accept-Encoding"))
}

// write serves body on a compressible endpoint: Vary whenever compression
// is enabled (the representation depends on Accept-Encoding even when
// this response is identity), gzip when the client accepts it and the
// body is large enough to pay off.
func (g gzipConfig) write(w http.ResponseWriter, r *http.Request, body []byte) {
	if g.enabled {
		w.Header().Add("Vary", "Accept-Encoding")
	}
	if g.wants(r, len(body)) {
		g.compress(w, body)
		return
	}
	w.Write(body)
}

// compress writes body gzipped with the Content-Encoding header.
func (g gzipConfig) compress(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Encoding", "gzip")
	w.Header().Del("Content-Length")
	zw := gzip.NewWriter(w)
	zw.Write(body) //nolint:errcheck // error surfaces on Close, and the connection is the only failure mode
	zw.Close()     //nolint:errcheck // ditto: nothing useful to do mid-response
}

// acceptsGzip reports whether an Accept-Encoding header value admits
// gzip: the token present and not disabled with q=0.
func acceptsGzip(header string) bool {
	for _, part := range strings.Split(header, ",") {
		token, params, _ := strings.Cut(strings.TrimSpace(part), ";")
		if tok := strings.TrimSpace(token); tok != "gzip" && tok != "*" {
			continue
		}
		q := strings.TrimSpace(params)
		if strings.HasPrefix(q, "q=") {
			if v, err := strconv.ParseFloat(q[2:], 64); err == nil && v == 0 {
				return false
			}
		}
		return true
	}
	return false
}

// gzipETagVariant derives the strong validator of the gzip representation
// from the identity representation's quoted ETag.
func gzipETagVariant(etag string) string {
	if inner, ok := strings.CutSuffix(etag, `"`); ok {
		return inner + `-gzip"`
	}
	return etag + "-gzip"
}

// setCacheHeaders translates an edge's cache disposition into the HTTP
// cache contract: max-age is the edge TTL (the entry's total freshness
// lifetime) and Age is how much of it is already spent, so a downstream
// cache holds the entry for exactly the remaining TTL — never past the
// staleness bound the client-side 2∆ policy assumes.
func setCacheHeaders(w http.ResponseWriter, pm PullMeta) {
	if pm.TTL <= 0 {
		// Uncached upstream: forbid downstream caching too, or a front CDN
		// would add staleness the deployment chose to not have.
		w.Header().Set("Cache-Control", "no-store")
		return
	}
	// max-age floors and Age ceils: both roundings shrink the remaining
	// downstream window (max-age − Age), so a front cache can only expire
	// the entry EARLIER than the edge would, never later.
	w.Header().Set("Cache-Control", fmt.Sprintf("max-age=%d", int(pm.TTL/time.Second)))
	w.Header().Set("Age", strconv.Itoa(int((pm.Age+time.Second-1)/time.Second)))
}

// setNegativeCacheHeader exports the negative TTL on an unknown-CA error
// so a front CDN absorbs the storm for the same window the edge would,
// instead of forwarding every 404 to us.
func setNegativeCacheHeader(w http.ResponseWriter, err error, negTTL time.Duration) {
	if negTTL > 0 && errors.Is(err, ErrUnknownCA) {
		w.Header().Set("Cache-Control", fmt.Sprintf("max-age=%d", int(negTTL/time.Second)))
	}
}

// HTTPClient is an Origin backed by the HTTP API; RAs use it to pull from a
// remote edge server. Root fetches are conditional: the client remembers
// the last root (with its ETag and Last-Modified) per CA and sends
// If-None-Match — or, when an intermediary stripped the ETag,
// If-Modified-Since — so an unchanged root costs a 304 with no body; the
// polling-heavy monitor workload stops re-downloading identical signed
// roots every cycle even through ETag-hostile caches.
//
// Every attempt carries a deadline of one ∆ — the period of the newest root
// of the CA this client decoded, or defaultAttemptDeadline before one — so
// an origin that accepts a request and never answers fails it like a dead
// one: a ring fails over, and the fetcher's schedule and Shutdown move on.
type HTTPClient struct {
	// BaseURL is the edge server's root, e.g. "http://edge1.example:8080".
	BaseURL string
	// Client is the HTTP client to use (nil = http.DefaultClient).
	Client *http.Client
	// MaxAttempts bounds the total tries per request when the failure is
	// transient — a transport-level error (connection reset, refused) or a
	// gateway-class 5xx without a typed error header. 0 means
	// DefaultMaxAttempts; 1 disables retrying. Typed protocol answers
	// (unknown CA, ahead, no replication) and client-side caps (body
	// overflow) are authoritative and never retried.
	MaxAttempts int
	// RetryBackoff is the base of the jittered exponential backoff between
	// attempts (0 = DefaultRetryBackoff): attempt k sleeps base·2ᵏ scaled
	// by a random factor in [0.5, 1.5), so a fleet of RAs whose shared
	// edge hiccups does not re-stampede it in lockstep.
	RetryBackoff time.Duration

	mu     sync.Mutex
	roots  map[dictionary.CAID]*cachedRoot
	deltas map[dictionary.CAID]time.Duration // ∆ of the newest root decoded per CA
}

// defaultAttemptDeadline bounds an attempt for a CA the client has decoded
// no signed root of yet, and one naming no CA: the default ∆ of a CA and an
// RA.
const defaultAttemptDeadline = 10 * time.Second

// DefaultMaxAttempts is the default total tries per request (one initial
// attempt plus two retries).
const DefaultMaxAttempts = 3

// DefaultRetryBackoff is the default backoff base between attempts.
const DefaultRetryBackoff = 50 * time.Millisecond

// cachedRoot is the client's validator cache for one CA: the last root
// the server sent (decoded once, returned again on every 304) and the
// validators it sent it under (either may be empty when an intermediary
// strips headers), plus the memoized request path.
//
// Returning the SAME *SignedRoot on revalidation is load-bearing beyond
// saving the decode: the /v1/root handler memoizes its validators per
// root pointer (rootMemo), so a PoP tier whose upstream client answers
// 304s with a stable pointer serves its own downstream allocation-free.
type cachedRoot struct {
	url          string // memoized "/v1/root?ca=..." path
	etag         string
	lastModified string
	root         *dictionary.SignedRoot
}

var _ Origin = (*HTTPClient)(nil)

// defaultHTTPClient backs every HTTPClient that does not bring its own
// http.Client. http.DefaultClient's transport keeps only
// http.DefaultMaxIdleConnsPerHost (2) idle connections per host — far too
// few for the dissemination fan-in, where a whole RA fleet multiplexes
// concurrent pulls against ONE edge host: every request past the second
// opens a fresh TCP connection only to close it moments later. The shared
// transport below clones the default (keeping its dialer keep-alives and
// proxy/timeout settings) and raises the idle pool so the steady-state
// pull load runs over warm, reused connections.
var defaultHTTPClient = &http.Client{Transport: newDefaultTransport()}

func newDefaultTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 256
	t.MaxIdleConnsPerHost = 64
	return t
}

func (h *HTTPClient) client() *http.Client {
	if h.Client != nil {
		return h.Client
	}
	return defaultHTTPClient
}

// deadline returns how long one attempt of a request for ca may take.
func (h *HTTPClient) deadline(ca dictionary.CAID) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if d, ok := h.deltas[ca]; ok {
		return d
	}
	return defaultAttemptDeadline
}

// learnDelta makes root's ∆ the attempt deadline of its CA's requests.
func (h *HTTPClient) learnDelta(root *dictionary.SignedRoot) {
	if root == nil || root.DeltaSecs == 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.deltas == nil {
		h.deltas = make(map[dictionary.CAID]time.Duration)
	}
	h.deltas[root.CA] = root.Delta()
}

// httpResult is one response, decoded enough to map errors and validators.
type httpResult struct {
	status       int
	etag         string
	lastModified string
	body         []byte
}

// get performs one GET with bounded retry on transient failures.
// ifNoneMatch / ifModifiedSince, when non-empty, are sent as the
// corresponding conditional headers. Bodies larger than maxBody are an
// explicit error. Only failures that a retry can plausibly fix — the
// transport erroring before a response, a read cut mid-body, a
// gateway-class 5xx carrying no typed error header — are retried; every
// typed protocol answer passes through untouched on the first attempt.
// Each attempt must answer within ca's deadline; one that does not is not
// retried either: an origin that hangs once hangs again, and the caller's
// failover or next pull is the better recovery.
func (h *HTTPClient) get(ca dictionary.CAID, path, ifNoneMatch, ifModifiedSince string) (*httpResult, error) {
	attempts := h.MaxAttempts
	if attempts <= 0 {
		attempts = DefaultMaxAttempts
	}
	backoff := h.RetryBackoff
	if backoff <= 0 {
		backoff = DefaultRetryBackoff
	}
	deadline := h.deadline(ca)
	var res *httpResult
	var retryable bool
	var err error
	for attempt := 0; ; attempt++ {
		res, retryable, err = h.getOnce(deadline, path, ifNoneMatch, ifModifiedSince)
		if err == nil || !retryable || attempt+1 >= attempts {
			return res, err
		}
		// Jittered exponential backoff: base·2ᵏ scaled into [0.5, 1.5).
		d := backoff << attempt
		time.Sleep(d/2 + time.Duration(rand.Int64N(int64(d))))
	}
}

// getOnce performs one attempt, answered within deadline; retryable reports
// whether the failure is transient (worth another attempt) rather than
// authoritative or a missed deadline.
func (h *HTTPClient) getOnce(deadline time.Duration, path, ifNoneMatch, ifModifiedSince string) (*httpResult, bool, error) {
	ctx, cancel := context.WithTimeout(context.TODO(), deadline)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.BaseURL+path, nil)
	if err != nil {
		return nil, false, fmt.Errorf("cdn http: %w", err)
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	if ifModifiedSince != "" {
		req.Header.Set("If-Modified-Since", ifModifiedSince)
	}
	resp, err := h.client().Do(req)
	if err != nil {
		return nil, ctx.Err() == nil, fmt.Errorf("cdn http: %w", err)
	}
	defer resp.Body.Close()
	// Read one byte past the cap: len(body) > bodyLimit distinguishes
	// "too large" from "exactly at the cap". The seed truncated silently
	// here and handed DecodePullResponse a cut-off buffer.
	body, err := io.ReadAll(io.LimitReader(resp.Body, int64(bodyLimit)+1))
	if err != nil {
		// A connection cut mid-body is as transient as one cut before the
		// response; the next attempt re-requests the whole body.
		return nil, ctx.Err() == nil, fmt.Errorf("cdn http: read body: %w", err)
	}
	if len(body) > bodyLimit {
		// Client-side cap: deterministic, retrying would re-download the
		// same oversized body.
		return nil, false, fmt.Errorf("cdn http: response body exceeds %d bytes", bodyLimit)
	}
	res := &httpResult{
		status:       resp.StatusCode,
		etag:         resp.Header.Get("ETag"),
		lastModified: resp.Header.Get("Last-Modified"),
		body:         body,
	}
	switch resp.StatusCode {
	case http.StatusOK, http.StatusNotModified:
		return res, false, nil
	default:
		// Typed sentinel by name first (transport-proof), status-code
		// fallback for servers predating the header.
		detail := strings.TrimSpace(string(body))
		if sentinel := sentinelFor(resp.Header.Get(errorHeader)); sentinel != nil {
			return nil, false, fmt.Errorf("%w: %s", sentinel, detail)
		}
		switch resp.StatusCode {
		case http.StatusNotFound:
			return nil, false, fmt.Errorf("%w: %s", ErrUnknownCA, detail)
		case http.StatusConflict:
			return nil, false, fmt.Errorf("%w: %s", ErrAhead, detail)
		case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			// Gateway-class failures with no typed header are the LB/proxy
			// between us and the origin hiccuping, not an answer.
			return nil, true, fmt.Errorf("cdn http: status %d: %s", resp.StatusCode, detail)
		default:
			return nil, false, fmt.Errorf("cdn http: status %d: %s", resp.StatusCode, detail)
		}
	}
}

// Pull implements Origin. The CA id is query-escaped: shard identifiers
// ("ca/exp-123") and ids containing '&', '+', '#', or spaces must survive
// the URL round trip unchanged, since the (ca, from) pair is the CDN cache
// key.
func (h *HTTPClient) Pull(ca dictionary.CAID, from uint64) (*PullResponse, error) {
	q := url.Values{
		"ca":   {string(ca)},
		"from": {strconv.FormatUint(from, 10)},
	}
	res, err := h.get(ca, "/v1/pull?"+q.Encode(), "", "")
	if err != nil {
		return nil, err
	}
	resp, err := DecodePullResponse(res.body)
	if err == nil && resp.Issuance != nil {
		h.learnDelta(resp.Issuance.Root)
	}
	return resp, err
}

// LatestRoot implements Origin. The fetch is conditional when a previous
// root for ca is cached: If-None-Match when an ETag survived the transport,
// If-Modified-Since otherwise (the fallback for caches that strip ETags).
// On 304 the cached decode is returned as-is — the same *SignedRoot a
// full fetch of the unchanged root would describe, without body or decode.
func (h *HTTPClient) LatestRoot(ca dictionary.CAID) (*dictionary.SignedRoot, error) {
	h.mu.Lock()
	cached := h.roots[ca]
	h.mu.Unlock()
	var inm, ims, path string
	if cached != nil {
		inm = cached.etag
		if inm == "" {
			// No strong validator survived; fall back to the weak one. Never
			// send both: a server honoring RFC 9110 ignores If-Modified-Since
			// when If-None-Match is present anyway.
			ims = cached.lastModified
		}
		path = cached.url
	} else {
		path = "/v1/root?" + url.Values{"ca": {string(ca)}}.Encode()
	}
	res, err := h.get(ca, path, inm, ims)
	if err != nil {
		return nil, err
	}
	if res.status == http.StatusNotModified {
		if cached == nil {
			// A 304 to an unconditional request is a server bug; surface it.
			return nil, fmt.Errorf("cdn http: 304 for %s without a cached root", ca)
		}
		return cached.root, nil
	}
	root, err := dictionary.DecodeSignedRoot(res.body)
	if err != nil {
		return nil, err
	}
	h.learnDelta(root)
	if res.etag != "" || res.lastModified != "" {
		h.mu.Lock()
		if h.roots == nil {
			h.roots = make(map[dictionary.CAID]*cachedRoot)
		}
		h.roots[ca] = &cachedRoot{url: path, etag: res.etag, lastModified: res.lastModified, root: root}
		h.mu.Unlock()
	}
	return root, nil
}

// Replicate implements Replicator over the HTTP transport: a follower
// origin points it at the leader's base URL and tails the per-CA WAL
// through `/v1/replicate?ca=...&from_lsn=...`.
func (h *HTTPClient) Replicate(ca dictionary.CAID, fromLSN uint64) (*ReplicationResponse, error) {
	q := url.Values{
		"ca":       {string(ca)},
		"from_lsn": {strconv.FormatUint(fromLSN, 10)},
	}
	res, err := h.get(ca, "/v1/replicate?"+q.Encode(), "", "")
	if err != nil {
		return nil, err
	}
	return DecodeReplicationResponse(res.body)
}

var _ Replicator = (*HTTPClient)(nil)

// CAs implements Origin.
func (h *HTTPClient) CAs() ([]dictionary.CAID, error) {
	res, err := h.get("", "/v1/cas", "", "")
	if err != nil {
		return nil, err
	}
	var out []dictionary.CAID
	for _, line := range strings.Split(string(res.body), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			out = append(out, dictionary.CAID(line))
		}
	}
	return out, nil
}
