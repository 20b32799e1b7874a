package server

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lmerge/internal/core"
	"lmerge/internal/gen"
	"lmerge/internal/obs"
	"lmerge/internal/temporal"
)

// runPublishers pushes n differently-rendered copies of sc through the
// server concurrently and waits for the merged stream to complete.
func runPublishers(t *testing.T, s *Server, sc *gen.Script, n int) temporal.Stream {
	t.Helper()
	sub, err := Subscribe(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := Connect(s.Addr(), temporal.MinTime)
			if err != nil {
				t.Error(err)
				return
			}
			defer p.Close()
			stream := sc.Render(gen.RenderOptions{Seed: int64(10 + i), Disorder: 0.3, StableFreq: 0.05})
			if err := p.SendStream(stream); err != nil {
				t.Error(err)
			}
		}(i)
	}
	merged := collect(t, sub)
	wg.Wait()
	// Publisher detach happens on the handler goroutine after the client
	// closes; wait for the server to quiesce so counters are final.
	deadline := time.Now().Add(5 * time.Second)
	for s.Publishers() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("publishers never detached: %d", s.Publishers())
		}
		time.Sleep(time.Millisecond)
	}
	return merged
}

// fetchMetrics GETs the handler's path and decodes the JSON body into out.
func fetchMetrics(t *testing.T, s *Server, path string, out any) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != 200 {
		t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
		t.Fatalf("GET %s: bad JSON: %v\n%s", path, err, rec.Body.String())
	}
}

// TestMetricsEndpointEndToEnd drives a two-publisher merge over TCP and
// verifies the /metrics payload: per-node counters that reconcile with the
// server's own Stats, non-negative freshness quantiles, leadership stats
// naming a real publisher, and the service gauges.
func TestMetricsEndpointEndToEnd(t *testing.T) {
	s := newTestServer(t)
	sc := serverScript(31)
	merged := runPublishers(t, s, sc, 2)
	if _, err := temporal.Reconstitute(merged); err != nil {
		t.Fatalf("merged stream invalid: %v", err)
	}

	var page obs.MetricsPage
	fetchMetrics(t, s, "/metrics", &page)

	var merge *obs.Snapshot
	for i := range page.Nodes {
		if page.Nodes[i].Name == "merge" {
			merge = &page.Nodes[i]
		}
	}
	if merge == nil {
		t.Fatalf("no 'merge' node in metrics: %+v", page.Nodes)
	}
	st := s.Stats()
	if merge.InInserts != st.InInserts || merge.InAdjusts != st.InAdjusts || merge.InStables != st.InStables {
		t.Errorf("merge input counters diverge from Stats: %+v vs %+v", merge, st)
	}
	if merge.OutInserts != st.OutInserts || merge.OutStables != st.OutStables {
		t.Errorf("merge output counters diverge from Stats: %+v vs %+v", merge, st)
	}
	if merge.Freshness.Samples == 0 {
		t.Error("no freshness samples after a full merge")
	}
	if merge.Freshness.Min < 0 || merge.Freshness.P95 < merge.Freshness.P50 {
		t.Errorf("freshness quantiles malformed: %+v", merge.Freshness)
	}
	if merge.Leadership.Leader < 0 {
		t.Errorf("no leader after merge completion: %+v", merge.Leadership)
	}
	if merge.Leadership.Advances != st.OutStables {
		t.Errorf("leadership advances %d != output stables %d", merge.Leadership.Advances, st.OutStables)
	}
	var contrib int64
	for _, c := range merge.Leadership.Contribution {
		contrib += c
	}
	if contrib != merge.Leadership.Advances {
		t.Errorf("contributions %d do not sum to advances %d", contrib, merge.Leadership.Advances)
	}
	if merge.OutFrontier != int64(temporal.Infinity) {
		t.Errorf("output frontier %d, want stable(inf)", merge.OutFrontier)
	}

	if page.Service["publishers"].(float64) != 0 {
		t.Errorf("publishers still attached: %v", page.Service["publishers"])
	}
	if page.Service["max_stable"].(float64) != float64(temporal.Infinity) {
		t.Errorf("service max_stable: %v", page.Service["max_stable"])
	}
	if page.Service["merge_state_bytes"] == nil {
		t.Error("missing merge_state_bytes gauge")
	}

	// The trace endpoint serves the attach/detach history of the run. The
	// wire encodes the kind as its string form (KindS).
	var events []obs.Event
	fetchMetrics(t, s, "/debug/trace", &events)
	var attaches int
	for _, e := range events {
		if e.KindS == obs.EventAttach.String() {
			attaches++
		}
	}
	if attaches != 2 {
		t.Errorf("trace attach events: got %d want 2", attaches)
	}
	// And the text dump renders lines.
	rec := httptest.NewRecorder()
	s.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?format=text", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "attach") {
		t.Errorf("text trace dump missing attach lines:\n%s", rec.Body.String())
	}
}

// TestMetricsEndpointPartitioned repeats the end-to-end check on the sharded
// backend: the reunify node plus one telemetry node per partition worker,
// partition stats in the service gauges, and partition-leadership on the
// reunify node.
func TestMetricsEndpointPartitioned(t *testing.T) {
	s, err := NewWithOptions("127.0.0.1:0", Options{Case: core.CaseR3, FeedbackLag: -1, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sc := serverScript(32)
	merged := runPublishers(t, s, sc, 2)
	if _, err := temporal.Reconstitute(merged); err != nil {
		t.Fatalf("merged stream invalid: %v", err)
	}

	var page obs.MetricsPage
	fetchMetrics(t, s, "/metrics", &page)
	byName := map[string]obs.Snapshot{}
	for _, n := range page.Nodes {
		byName[n.Name] = n
	}
	merge, ok := byName["merge"]
	if !ok {
		t.Fatalf("no reunify node in metrics: %+v", page.Nodes)
	}
	var workerIn int64
	for p := 0; p < 4; p++ {
		w, ok := byName["merge/part"+string(rune('0'+p))]
		if !ok {
			t.Fatalf("missing worker node merge/part%d", p)
		}
		workerIn += w.InInserts + w.InAdjusts
	}
	// Routing conservation: every insert/adjust the pool accepted reached
	// exactly one worker.
	if got := merge.InInserts + merge.InAdjusts; workerIn != got {
		t.Errorf("workers saw %d inserts/adjusts, pool routed %d", workerIn, got)
	}
	// Freshness sampling excludes end-of-stream transitions (an input
	// frontier at ∞ makes the lag unbounded), and on a fast localhost run
	// the whole input can complete before the async workers emit reunified
	// stables — so samples may legitimately be zero here. What must never
	// appear is an ∞-scale sample leaking into the quantiles.
	if merge.Freshness.Max >= int64(temporal.Infinity)/2 {
		t.Errorf("end-of-stream lag leaked into freshness: %+v", merge.Freshness)
	}
	// Reunify leadership is the binding partition index.
	if l := merge.Leadership.Leader; l < 0 || l >= 4 {
		t.Errorf("binding partition out of range: %d", l)
	}
	if page.Service["partitions"].(float64) != 4 {
		t.Errorf("service partitions: %v", page.Service["partitions"])
	}
	if page.Service["partition_stats"] == nil {
		t.Error("missing partition_stats in service gauges")
	}
}

// TestStateBytesGaugeFreshUnderPolling scrapes /metrics and Telemetry() in a
// tight loop while a publisher runs (what `go test -race -cpu 1,2,4` should
// see), on the single and the sharded backend, and checks the state gauge at
// two quiescent points: with long-lived events resident it is positive, and
// the moment stable(∞) has retired them it reads zero on both surfaces. The
// second read comes well inside any plausible poll interval of the first:
// the gauge is a sum of counters the mergers maintain, not a cached sweep.
func TestStateBytesGaugeFreshUnderPolling(t *testing.T) {
	for _, parts := range []int{1, 3} {
		s, err := NewWithOptions("127.0.0.1:0", Options{Case: core.CaseR3, FeedbackLag: -1, Partitions: parts})
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var polls sync.WaitGroup
		for i := 0; i < 2; i++ {
			polls.Add(1)
			go func(i int) {
				defer polls.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if i == 0 {
						rec := httptest.NewRecorder()
						s.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
					} else {
						s.Telemetry()
					}
				}
			}(i)
		}
		sub, err := Subscribe(s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		p, err := Connect(s.Addr(), temporal.MinTime)
		if err != nil {
			t.Fatal(err)
		}
		// gauge sends els, waits for the closing stable to come out merged
		// (then, sharded, for one control round trip per worker twice: a
		// worker publishes its size at the end of the pass that answered the
		// first) and reads the gauge off both surfaces.
		gauge := func(els temporal.Stream) (page, node int64) {
			t.Helper()
			if err := p.SendStream(els); err != nil {
				t.Fatal(err)
			}
			if err := p.Flush(); err != nil {
				t.Fatal(err)
			}
			for want := els[len(els)-1]; ; {
				e, ok := sub.Next()
				if !ok {
					t.Fatal("subscriber closed early")
				}
				if e == want {
					break
				}
			}
			s.Stats()
			s.Stats()
			var pg obs.MetricsPage
			fetchMetrics(t, s, "/metrics", &pg)
			for _, n := range s.Telemetry() {
				if n.Name == "merge" {
					node = n.StateBytes
				}
			}
			return int64(pg.Service["merge_state_bytes"].(float64)), node
		}
		var els temporal.Stream
		for i := 0; i < 400; i++ {
			els = append(els, temporal.Insert(temporal.P(int64(i)), temporal.Time(i+1), 1<<40))
		}
		if page, node := gauge(append(els, temporal.Stable(401))); page <= 0 || node != page {
			t.Errorf("partitions=%d: %d live events resident: merge_state_bytes %d, merge node gauge %d; want equal and positive",
				parts, len(els), page, node)
		}
		if page, node := gauge(temporal.Stream{temporal.Stable(temporal.Infinity)}); page != 0 || node != 0 {
			t.Errorf("partitions=%d: right after stable(∞): merge_state_bytes %d, merge node gauge %d; want 0, 0", parts, page, node)
		}
		close(stop)
		polls.Wait()
		p.Close()
		sub.Close()
		s.Close()
	}
}
