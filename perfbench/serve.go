package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"morphcache/internal/obs"
	"morphcache/internal/serve"
	"morphcache/internal/wal"
)

// Operation kinds of the serve load.
const (
	opGet = iota
	opPut
	opDelete
)

var opNames = [...]string{"get", "put", "delete"}

// serveWorkload is one traffic mix against the loopback server.
type serveWorkload struct {
	// getPct and putPct are the shares of GET and PUT in percent; the rest
	// are DELETEs.
	getPct, putPct int
	// keys is the keyspace size of each tenant by popularity rank, hottest
	// first (see rankTenant).
	keys [serveTenants]int
	// valueBytes is the size of every stored value.
	valueBytes int
	// requests is the fixed operation count of one repetition, and
	// epochEvery the operation count of one epoch (one Cache.EndEpoch
	// call); both are split evenly over the clients.
	requests, epochEvery int
	// fill makes a GET miss followed by a PUT of the value (cache-aside).
	fill bool
	// primary is the operation whose latency op_p50_us and op_p90_us
	// report.
	primary int
}

const (
	serveTenants = 4
	serveClients = 2
	// serveWarmKeys is how many of each tenant's hottest keys the set-up
	// stores before the first timed request.
	serveWarmKeys = 256
	// The server has cmd/morphserve's default 16 slots over 4 shards, with
	// 32 KiB slots: one key per 64-byte line, so a slot holds 512 keys and
	// the cache 8192.
	serveSlots     = 16
	serveShards    = 4
	serveSlotBytes = 32 << 10
	// tenantZipfS and keyZipfS skew tenant popularity and key popularity
	// within a tenant (math/rand's Zipf needs s > 1); keyZipfV flattens the
	// hottest keys' head, so a tenant's demand spans more than a few keys.
	tenantZipfS = 1.5
	keyZipfS    = 1.01
	keyZipfV    = 32
	// serveFsync is the WAL durability policy of both serve workloads. It
	// is interval, not morphserve's default always: on the shared disk the
	// benchmark was tuned on, fsync p99 moved between 0.26 and 0.96 ms from
	// one second to the next, and serve-read's wall time between 3.7 and
	// 9.8 s across runs under always.
	serveFsync = wal.FsyncInterval
)

var serveWorkloads = map[string]serveWorkload{
	// Reads: 3840 keys in all, under the 8192 the cache holds, but the
	// hottest tenant's 2048 are four times its slot; its cache-aside fills
	// push its demand past the slot, so capacity merges fire. Small values;
	// WAL appends are rare once the cache is warm.
	"serve-read": {
		getPct: 95, putPct: 5, fill: true,
		keys:       [serveTenants]int{2048, 1024, 512, 256},
		valueBytes: 64,
		requests:   40000, epochEvery: 2000,
		primary: opGet,
	},
	// Writes: 32768 keys, four times the cache's capacity, so PUTs of cold
	// keys evict; WAL appends under fsync and the compaction that follows
	// every repartitioning epoch run under load.
	"serve-write": {
		getPct: 40, putPct: 50,
		keys:       [serveTenants]int{16384, 8192, 5120, 3072},
		valueBytes: 512,
		requests:   24000, epochEvery: 3000,
		primary: opPut,
	},
}

// rankTenant maps popularity rank to tenant (= home slot). The coldest
// tenant sits in the hottest one's buddy slot, so the controller's merge
// rule (an over-utilized group next to an under-utilized one) can fire.
var rankTenant = [serveTenants]int{0, 2, 3, 1}

func tenantName(t int) string { return "t" + strconv.Itoa(t) }
func keyName(k int) string    { return "k" + strconv.Itoa(k) }

// sop is one generated request.
type sop struct {
	kind, tenant, key int
}

// genOps generates each client's request list from the seed.
func genOps(w serveWorkload, seed uint64) [serveClients][]sop {
	var out [serveClients][]sop
	per := w.requests / serveClients
	for c := range out {
		r := rand.New(rand.NewSource(int64(seed*1000003 + uint64(c))))
		tz := rand.NewZipf(r, tenantZipfS, 1, serveTenants-1)
		var kz [serveTenants]*rand.Zipf
		for t := range kz {
			kz[t] = rand.NewZipf(r, keyZipfS, keyZipfV, uint64(w.keys[t]-1))
		}
		ops := make([]sop, per)
		for i := range ops {
			rank := int(tz.Uint64())
			o := sop{tenant: rankTenant[rank], key: int(kz[rank].Uint64())}
			switch p := r.Intn(100); {
			case p < w.getPct:
				o.kind = opGet
			case p < w.getPct+w.putPct:
				o.kind = opPut
			default:
				o.kind = opDelete
			}
			ops[i] = o
		}
		out[c] = ops
	}
	return out
}

// value builds a stored value: a header naming the tenant, the key and the
// writer's sequence number, padded to size. A GET hit whose header names
// another tenant or key, or whose length is wrong, is a wrong value.
func value(tenant, key, writer, seq, size int) []byte {
	b := make([]byte, 0, size)
	b = fmt.Appendf(b, "%s/%s/%d/%d|", tenantName(tenant), keyName(key), writer, seq)
	for len(b) < size {
		b = append(b, byte('a'+len(b)%26))
	}
	return b
}

func checkValue(v []byte, tenant, key, size int) error {
	if len(v) != size {
		return fmt.Errorf("%s/%s: value of %d bytes, want %d", tenantName(tenant), keyName(key), len(v), size)
	}
	want := tenantName(tenant) + "/" + keyName(key) + "/"
	if !bytes.HasPrefix(v, []byte(want)) {
		head, _, _ := bytes.Cut(v, []byte("|"))
		return fmt.Errorf("%s/%s: got the value written as %q", tenantName(tenant), keyName(key), head)
	}
	return nil
}

// serveStats is what a serve repetition reports besides the common fields.
type serveStats struct {
	LatUS        [3][]float64 `json:"lat_us"` // per operation kind
	Gets         int          `json:"gets"`
	GetHits      int          `json:"get_hits"`
	Repartitions float64      `json:"repartitions"`
	Evictions    float64      `json:"evictions"`
	Collisions   float64      `json:"collisions"`
	AllocsPerReq float64      `json:"allocs_per_req"`
	WALBytes     int64        `json:"wal_bytes"`
	WALSegments  int          `json:"wal_segments"`
	AckedBytes   int64        `json:"acked_bytes"`
}

// server is one loopback cache server, built the way cmd/morphserve
// builds it.
type server struct {
	cache  *serve.Cache
	reg    *obs.Registry
	addr   string
	walDir string
	close  func() error
}

// startServer builds the cache (with its WAL in a fresh directory under
// workdir) and serves it on a loopback port. A non-nil wrap wraps the
// mux's handler (the traced run's HTTP timing).
func startServer(workdir string, wrap func(http.Handler) http.Handler) (*server, error) {
	walDir, err := os.MkdirTemp(workdir, "wal-")
	if err != nil {
		return nil, err
	}
	tenants := make([]string, serveTenants)
	for i := range tenants {
		tenants[i] = tenantName(i)
	}
	cfg := serve.Config{
		Tenants:   tenants,
		Slots:     serveSlots,
		Shards:    serveShards,
		SlotBytes: serveSlotBytes,
		Persist:   &serve.PersistConfig{Dir: walDir, Fsync: serveFsync},
	}
	hub := obs.NewHub(obs.HubOptions{Shards: 1})
	cache, err := serve.New(cfg, hub.Registry)
	if err != nil {
		os.RemoveAll(walDir)
		return nil, err
	}
	admin := obs.NewAdmin(hub.Registry, hub.Jobs)
	cache.Register(admin)
	s := &server{cache: cache, reg: hub.Registry, walDir: walDir}
	if wrap == nil {
		srv, err := obs.Serve("127.0.0.1:0", admin)
		if err != nil {
			cache.Close()
			os.RemoveAll(walDir)
			return nil, err
		}
		s.addr = srv.Addr()
		s.close = func() error { return shutdown(srv.Shutdown, cache) }
		return s, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cache.Close()
		os.RemoveAll(walDir)
		return nil, err
	}
	d := obs.DefaultServerOptions()
	hs := &http.Server{
		Handler:           wrap(admin.Handler()),
		ReadHeaderTimeout: d.ReadHeaderTimeout,
		ReadTimeout:       d.ReadTimeout,
		WriteTimeout:      d.WriteTimeout,
		IdleTimeout:       d.IdleTimeout,
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln) //nolint:errcheck // always ErrServerClosed after Shutdown
	}()
	s.addr = ln.Addr().String()
	s.close = func() error {
		err := shutdown(hs.Shutdown, cache)
		<-done
		return err
	}
	return s, nil
}

func shutdown(stop func(context.Context) error, cache *serve.Cache) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := stop(ctx); err != nil {
		return fmt.Errorf("server shutdown: %w", err)
	}
	if err := cache.Close(); err != nil {
		return fmt.Errorf("wal close: %w", err)
	}
	return nil
}

// counter sums every series of a registry counter.
func counter(reg *obs.Registry, name string) (float64, error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return 0, err
	}
	var total float64
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name) || (len(line) > len(name) && line[len(name)] != '{' && line[len(name)] != ' ') {
			continue
		}
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", line, err)
		}
		total += v
	}
	return total, sc.Err()
}

// dirUsage returns the total size of dir's files and its WAL segment count.
func dirUsage(dir string) (size int64, segments int, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, 0, err
		}
		size += info.Size()
		if strings.HasSuffix(e.Name(), ".wal") {
			segments++
		}
	}
	return size, segments, nil
}

// loadResult is what the closed-loop load reports.
type loadResult struct {
	wall      time.Duration
	firstOp   time.Time
	lat       [3][]float64
	rtt       []timedReq
	attempted int
	gets      int
	getHits   int
	acked     int64
	failed    int
	errors    []string
	endEpochs []epochTiming
}

// timedReq is one request's client-observed round trip, by request ID.
type timedReq struct {
	id int
	d  time.Duration
}

type epochTiming struct {
	d         time.Duration
	reconfigs int
}

// loadOpts are the traced run's hooks into the load.
type loadOpts struct {
	// reqID, when set, sends each request's ID in the header the handler
	// wrapper reads (to pair client and handler times).
	reqID bool
	tr    *obs.Tracer
}

const reqIDHeader = "X-Perfbench-Req"

// reqIDs is the ID space of one repetition's requests: client c numbers
// its requests from c*perClient, and issues at most two per generated
// operation (a GET and its cache-aside fill).
func reqIDs(ops [serveClients][]sop) (perClient, total int) {
	perClient = 2 * len(ops[0])
	return perClient, serveClients * perClient
}

// runLoad drives the closed loop: each client holds one keep-alive
// connection and sends its next request when the previous one returns.
// With w.fill, a GET miss is followed by a PUT of the value (cache-aside,
// as a cache's caller fills it from the backing store). After each
// client's share of an epoch (epochEvery/serveClients of its operations)
// the clients meet at a barrier, client 0 calls Cache.EndEpoch, and then
// all go on. So every epoch holds the same generated operations in every
// run; only their interleaving within the epoch varies.
func runLoad(s *server, w serveWorkload, ops [serveClients][]sop, lo loadOpts) *loadResult {
	res := &loadResult{}
	perClient, _ := reqIDs(ops)
	perEpoch := w.epochEvery / serveClients
	arrive, release := make(chan struct{}), make(chan struct{})
	var mu sync.Mutex // guards res while each client merges its results
	epochSpan := lo.tr.Begin(0, "serve", "epoch").Arg("epoch", 1)
	start := time.Now()
	res.firstOp = start
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tp.CloseIdleConnections()
			cl := &http.Client{Transport: tp}
			var lat [3][]float64
			var rtt []timedReq
			var attempted, gets, hits, failed int
			var acked int64
			var errs []string
			var epochs []epochTiming
			fail := func(format string, args ...any) {
				failed++
				if len(errs) < maxErrors {
					errs = append(errs, fmt.Sprintf(format, args...))
				}
			}
			base := "http://" + s.addr + "/cache/"
			// do sends one request and returns its status and body; status 0
			// means a transport error, already counted as failed.
			do := func(kind int, o sop, seq int) (int, []byte) {
				url := base + tenantName(o.tenant) + "/" + keyName(o.key)
				method := [...]string{http.MethodGet, http.MethodPut, http.MethodDelete}[kind]
				var body []byte
				if kind == opPut {
					body = value(o.tenant, o.key, c, seq, w.valueBytes)
				}
				id := c*perClient + attempted
				attempted++
				req, err := http.NewRequest(method, url, bytes.NewReader(body))
				if err != nil {
					fail("%s %s: %v", method, url, err)
					return 0, nil
				}
				if lo.reqID {
					req.Header.Set(reqIDHeader, strconv.Itoa(id))
				}
				t0 := time.Now()
				resp, err := cl.Do(req)
				var got []byte
				if err == nil {
					got, err = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
				d := time.Since(t0)
				rtt = append(rtt, timedReq{id, d})
				lat[kind] = append(lat[kind], float64(d.Nanoseconds())/1e3)
				if err != nil {
					fail("%s %s: %v", method, url, err)
					return 0, nil
				}
				switch st := resp.StatusCode; {
				case kind == opGet && st == http.StatusOK:
					if err := checkValue(got, o.tenant, o.key, w.valueBytes); err != nil {
						fail("GET %v", err)
					}
				case kind == opGet && st == http.StatusNotFound:
				case kind == opPut && st == http.StatusNoContent:
					acked += int64(len(keyName(o.key)) + len(body))
				case kind == opDelete && (st == http.StatusNoContent || st == http.StatusNotFound):
				default:
					fail("%s %s: status %d", method, url, st)
				}
				return resp.StatusCode, got
			}
			for i, o := range ops[c] {
				st, _ := do(o.kind, o, 2*i)
				if o.kind == opGet && st != 0 {
					gets++
					if st == http.StatusOK {
						hits++
					} else if w.fill {
						do(opPut, o, 2*i+1)
					}
				}
				if (i+1)%perEpoch != 0 {
					continue
				}
				if c != 0 {
					arrive <- struct{}{}
					<-release
					continue
				}
				for k := 1; k < serveClients; k++ {
					<-arrive
				}
				sp := lo.tr.Begin(int64(c+1), "serve", "end_epoch")
				e0 := time.Now()
				r, _ := s.cache.EndEpoch()
				epochs = append(epochs, epochTiming{time.Since(e0), r})
				sp.Arg("reconfigs", r).End()
				epochSpan.End()
				epochSpan = lo.tr.Begin(0, "serve", "epoch").Arg("epoch", (i+1)/perEpoch+1)
				for k := 1; k < serveClients; k++ {
					release <- struct{}{}
				}
			}
			mu.Lock()
			defer mu.Unlock()
			for k := range lat {
				res.lat[k] = append(res.lat[k], lat[k]...)
			}
			res.rtt = append(res.rtt, rtt...)
			res.attempted += attempted
			res.gets += gets
			res.getHits += hits
			res.acked += acked
			res.failed += failed
			res.errors = append(res.errors, errs...)
			res.endEpochs = append(res.endEpochs, epochs...)
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start)
	epochSpan.End()
	return res
}

// warmFill stores each tenant's hottest keys through the library API (the
// same WAL-backed Set the HTTP handler calls).
func warmFill(s *server, w serveWorkload) error {
	for t := 0; t < serveTenants; t++ {
		for k := 0; k < serveWarmKeys; k++ {
			if err := s.cache.Set(tenantName(t), keyName(k), value(t, k, serveClients, k, w.valueBytes)); err != nil {
				return fmt.Errorf("warm fill: %w", err)
			}
		}
	}
	return nil
}

// serveRep runs one repetition of a serve workload: set-up (inputs, cache
// and WAL, listener, warm fill), the timed closed loop, then the
// post-run counters. Traced, it also times the handler and replays the
// same operations through the library API and the WAL.
func serveRep(o options, traced bool) (*repResult, error) {
	w := serveWorkloads[o.workload]
	ops := genOps(w, o.seed)
	var handlerNS []atomic.Int64
	var handler []float64
	var hmu sync.Mutex
	var wrap func(http.Handler) http.Handler
	var tr *obs.Tracer
	if traced {
		tr = obs.NewTracer(nil)
		_, ids := reqIDs(ops)
		handlerNS = make([]atomic.Int64, ids)
		wrap = func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				t0 := time.Now()
				h.ServeHTTP(rw, r)
				d := time.Since(t0)
				if id, err := strconv.Atoi(r.Header.Get(reqIDHeader)); err == nil && id >= 0 && id < len(handlerNS) {
					handlerNS[id].Store(int64(d))
				}
				hmu.Lock()
				handler = append(handler, float64(d.Nanoseconds())/1e3)
				hmu.Unlock()
			})
		}
	}
	s, err := startServer(o.workdir, wrap)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(s.walDir)
	if err := warmFill(s, w); err != nil {
		s.close()
		return nil, err
	}

	runSpan := tr.Begin(0, "serve", "run").Arg("workload", o.workload)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	lr := runLoad(s, w, ops, loadOpts{reqID: traced, tr: tr})
	runtime.ReadMemStats(&ms1)
	runSpan.End()

	st := &serveStats{
		LatUS:        lr.lat,
		Gets:         lr.gets,
		GetHits:      lr.getHits,
		AckedBytes:   lr.acked,
		AllocsPerReq: float64(ms1.Mallocs-ms0.Mallocs) / float64(max(lr.attempted, 1)),
	}
	for name, dst := range map[string]*float64{
		"morphserve_repartitions_total":    &st.Repartitions,
		"morphserve_evictions_total":       &st.Evictions,
		"morphserve_hash_collisions_total": &st.Collisions,
	} {
		if *dst, err = counter(s.reg, name); err != nil {
			s.close()
			return nil, err
		}
	}
	if st.WALBytes, st.WALSegments, err = dirUsage(s.walDir); err != nil {
		s.close()
		return nil, err
	}
	if err := s.close(); err != nil {
		return nil, err
	}

	res := &repResult{
		Traced:    traced,
		FirstOpNS: lr.firstOp.UnixNano(),
		WallS:     lr.wall.Seconds(),
		OpUS:      lr.lat[w.primary],
		Attempted: lr.attempted,
		Failed:    lr.failed,
		Errors:    lr.errors,
		Serve:     st,
	}
	if !traced {
		return res, nil
	}

	l := zeroLayers()
	hmu.Lock()
	l["http.handler_us_p50"] = quantile(handler, 0.50)
	l["http.handler_us_p99"] = quantile(handler, 0.99)
	hmu.Unlock()
	var outside []float64
	for _, r := range lr.rtt {
		if h := handlerNS[r.id].Load(); h > 0 {
			outside = append(outside, float64((r.d-time.Duration(h)).Nanoseconds())/1e3)
		}
	}
	l["http.outside_us_p50"] = quantile(outside, 0.50)
	var quiet, reconf []float64
	for _, e := range lr.endEpochs {
		if e.reconfigs > 0 {
			reconf = append(reconf, float64(e.d.Nanoseconds())/1e6)
		} else {
			quiet = append(quiet, float64(e.d.Nanoseconds())/1e3)
		}
	}
	l["serve.end_epoch_quiet_us"] = median(quiet)
	l["serve.end_epoch_reconfig_ms"] = median(reconf)
	if err := replayLibrary(o, w, ops, l); err != nil {
		return nil, err
	}
	if err := walAppends(o, w, ops, l); err != nil {
		return nil, err
	}
	res.Layers = l
	res.TraceFile = filepath.Join(o.workdir, "trace-"+o.workload+".json")
	if err := writeTrace(res.TraceFile, tr); err != nil {
		return nil, err
	}
	return res, nil
}

// interleave merges the clients' request lists in round-robin order, the
// single-goroutine order the library replay and the WAL replay use.
func interleave(ops [serveClients][]sop) []sop {
	var out []sop
	for i := range ops[0] {
		for c := range ops {
			if i < len(ops[c]) {
				out = append(out, ops[c][i])
			}
		}
	}
	return out
}

// replayLibrary replays the run's operations on one goroutine through
// Cache.Get/Set/Delete on an identically configured cache (WAL included),
// with EndEpoch at the same request counts, and reports mean ns per call.
func replayLibrary(o options, w serveWorkload, ops [serveClients][]sop, l map[string]float64) error {
	s, err := startServer(o.workdir, nil)
	if err != nil {
		return err
	}
	defer os.RemoveAll(s.walDir)
	if err := warmFill(s, w); err != nil {
		s.close()
		return err
	}
	var ns, n [3]int64
	for i, op := range interleave(ops) {
		t, k := tenantName(op.tenant), keyName(op.key)
		var v []byte
		if op.kind == opPut {
			v = value(op.tenant, op.key, 0, i, w.valueBytes)
		}
		start := time.Now()
		switch op.kind {
		case opGet:
			_, err = s.cache.Get(t, k)
		case opPut:
			err = s.cache.Set(t, k, v)
		default:
			err = s.cache.Delete(t, k)
		}
		ns[op.kind] += int64(time.Since(start))
		n[op.kind]++
		if op.kind == opGet && err == serve.ErrNotFound && w.fill {
			v = value(op.tenant, op.key, 0, i, w.valueBytes)
			start = time.Now()
			err = s.cache.Set(t, k, v)
			ns[opPut] += int64(time.Since(start))
			n[opPut]++
		}
		if err != nil && err != serve.ErrNotFound {
			s.close()
			return fmt.Errorf("library replay %s %s/%s: %w", opNames[op.kind], t, k, err)
		}
		if (i+1)%w.epochEvery == 0 {
			s.cache.EndEpoch()
		}
	}
	for k, name := range []string{"serve.get_ns", "serve.set_ns", "serve.delete_ns"} {
		if n[k] > 0 {
			l[name] = float64(ns[k]) / float64(n[k])
		}
	}
	return s.close()
}

// walAppends appends the run's PUT records to a fresh log under the same
// fsync policy and reports the append latency quantiles; it also reports
// the server run's WAL footprint per acknowledged byte.
func walAppends(o options, w serveWorkload, ops [serveClients][]sop, l map[string]float64) error {
	dir, err := os.MkdirTemp(o.workdir, "walbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	lg, _, err := wal.Open(dir, wal.Options{Fsync: serveFsync}, nil)
	if err != nil {
		return err
	}
	var lat []float64
	for i, op := range interleave(ops) {
		if op.kind != opPut {
			continue
		}
		rec := wal.Record{Kind: wal.KindSet, Tenant: tenantName(op.tenant), Key: keyName(op.key), Value: value(op.tenant, op.key, 0, i, w.valueBytes)}
		start := time.Now()
		if err := lg.Append(rec); err != nil {
			lg.Close()
			return fmt.Errorf("wal append: %w", err)
		}
		lat = append(lat, float64(time.Since(start).Nanoseconds())/1e3)
	}
	l["wal.append_us_p50"] = quantile(lat, 0.50)
	l["wal.append_us_p99"] = quantile(lat, 0.99)
	return lg.Close()
}

// checkServe checks that the repartition count repeats across
// repetitions, traced ones included (the load drives EndEpoch on request
// counts, not a clock), and adds the serve-specific metrics.
func checkServe(o options, rp *report, plain, traced []rep) error {
	w := serveWorkloads[o.workload]
	var reparts, evict, coll, allocs, hit, walRatio, segs []float64
	var lat [3][]float64
	for _, r := range plain {
		st := r.Serve
		reparts = append(reparts, st.Repartitions)
		evict = append(evict, st.Evictions)
		coll = append(coll, st.Collisions)
		allocs = append(allocs, st.AllocsPerReq)
		hit = append(hit, float64(st.GetHits)/float64(max(st.Gets, 1)))
		walRatio = append(walRatio, float64(st.WALBytes)/float64(max(st.AckedBytes, 1)))
		segs = append(segs, float64(st.WALSegments))
		for k := range lat {
			lat[k] = append(lat[k], st.LatUS[k]...)
		}
	}
	all := append([]float64(nil), reparts...)
	for _, r := range traced {
		all = append(all, r.Serve.Repartitions)
	}
	rp.infof("repartitions per repetition: %v", all)
	for _, v := range all[1:] {
		if v != all[0] {
			rp.fail("repartition count differs across repetitions: %v", all)
			break
		}
	}
	rp.infof("hit_ratio %.4f (GET hits / GETs), primary operation %s", median(hit), strings.ToUpper(opNames[w.primary]))
	for k, name := range opNames {
		if len(lat[k]) > 0 {
			rp.infof("%s_p50_us %.1f  %s_p99_us %.1f  (%d samples)", name, quantile(lat[k], 0.5), name, quantile(lat[k], 0.99), len(lat[k]))
		}
	}
	rp.set("serve.repartitions", median(reparts), "count", len(reparts))
	rp.set("serve.evictions", median(evict), "count", len(evict))
	rp.set("serve.collisions", median(coll), "count", len(coll))
	rp.set("serve.hit_ratio", median(hit), "frac", len(hit))
	rp.set("http.allocs_per_req", median(allocs), "count", len(allocs))
	rp.set("wal.bytes_per_user_byte", median(walRatio), "ratio", len(walRatio))
	rp.set("wal.segments", median(segs), "count", len(segs))
	return nil
}
