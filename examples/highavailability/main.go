// High availability (paper Sec. II-1): five replicas of a continuous query
// run on independent "nodes" and publish to one LMerge server at the
// consumer. Replicas fail one after another — their connections close
// mid-stream — until a single survivor remains; a replacement attaches
// mid-run and replays its whole rendering from scratch, skipping what the
// merged output already covers. A subscriber checks that the merged output
// still converges to the correct logical result with no losses or
// duplicates.
package main

import (
	"fmt"
	"os"
	"time"

	"lmerge/internal/core"
	"lmerge/internal/gen"
	"lmerge/internal/server"
	"lmerge/internal/temporal"
)

// replica is one query instance: a connection to the server plus the
// physical presentation of the logical stream it delivers.
type replica struct {
	pub     *server.Publisher
	stream  temporal.Stream
	pos     int
	skipped int
	failed  bool
}

func main() {
	script := gen.NewScript(gen.Config{
		Events:        2000,
		Seed:          7,
		EventDuration: 60,
		MaxGap:        10,
		Revisions:     0.4,
		RemoveProb:    0.2,
		PayloadBytes:  32,
	})
	srv, err := server.New("127.0.0.1:0", core.CaseR3)
	if err != nil {
		panic(err)
	}
	defer srv.Close()

	sub, err := server.Subscribe(srv.Addr())
	if err != nil {
		panic(err)
	}
	defer sub.Close()
	type result struct {
		out      *temporal.TDB
		elements int
		err      error
	}
	done := make(chan result, 1)
	go func() {
		res := result{out: temporal.NewTDB()}
		for {
			e, ok := sub.Next()
			if !ok {
				res.err = fmt.Errorf("merged stream ended before stable ∞")
				break
			}
			if err := res.out.Apply(e); err != nil {
				res.err = fmt.Errorf("invalid merged output: %w", err)
				break
			}
			res.elements++
			if e.Kind == temporal.KindStable && e.T().IsInf() {
				break
			}
		}
		done <- res
	}()

	seed := int64(9000)
	spawn := func() *replica {
		seed++
		pub, err := server.Connect(srv.Addr(), temporal.MinTime)
		if err != nil {
			panic(err)
		}
		return &replica{pub: pub, stream: script.Render(gen.RenderOptions{
			Seed: seed, Disorder: 0.3, StableFreq: 0.02,
		})}
	}
	var reps []*replica
	for i := 0; i < 5; i++ {
		reps = append(reps, spawn())
	}
	live := len(reps)
	fmt.Printf("server %s: %d replicas computing a %d-event continuous query\n",
		srv.Addr(), live, script.Cfg.Events)

	fail := func(r *replica, step int) {
		r.failed = true
		r.pub.Close()
		live--
		fmt.Printf("step %4d: replica %d FAILED after %d elements (%d replicas remain; output keeps flowing)\n",
			step, r.pub.ID(), r.pos, live)
	}
	var fresh *replica
	for step := 1; ; step++ {
		// Replicas progress in lockstep, like equally provisioned nodes: one
		// element each per step, skipping what the merge no longer needs.
		progressed := false
		for _, r := range reps {
			if r.failed || r.pos >= len(r.stream) {
				continue
			}
			e := r.stream[r.pos]
			r.pos++
			progressed = true
			if r.pub.ShouldSkip(e) {
				r.skipped++
				continue
			}
			if err := r.pub.Send(e); err != nil {
				panic(err)
			}
			if err := r.pub.Flush(); err != nil {
				panic(err)
			}
		}
		if !progressed {
			break
		}
		switch step {
		case 300:
			fail(reps[1], step)
		case 700:
			fail(reps[2], step)
		case 900:
			fresh = spawn()
			reps = append(reps, fresh)
			live++
			fmt.Printf("step %4d: replacement replica %d attached (join point %v); it replays from scratch\n",
				step, fresh.pub.ID(), fresh.pub.JoinStable())
		case 1200:
			fail(reps[3], step)
		case 1500:
			fail(reps[4], step)
		case 1800:
			// Even the last original replica dies: the replacement carries on.
			fail(reps[0], step)
		}
	}
	var res result
	select {
	case res = <-done:
	case <-time.After(10 * time.Second):
		fmt.Println("ERROR: merged stream did not reach stable ∞ within 10s")
		os.Exit(1)
	}
	for _, r := range reps {
		if !r.failed {
			r.pub.Close()
		}
	}

	fmt.Printf("\nlive replicas at end: %d (replacement skipped %d of %d elements)\n",
		live, fresh.skipped, len(fresh.stream))
	fmt.Printf("merged output: %d elements, stable point %v\n", res.elements, res.out.Stable())
	if res.err != nil {
		fmt.Printf("ERROR: %v\n", res.err)
		os.Exit(1)
	}
	ok := res.out.Equal(script.TDB())
	fmt.Printf("output ≡ logical query result: %v (%d events, no losses, no duplicates)\n",
		ok, res.out.Len())
	if !ok {
		os.Exit(1)
	}
}
