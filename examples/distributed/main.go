// Distributed merge: the high-availability deployment of Sec. II-1 over
// real TCP connections. An LMerge server runs at the "consumer"; three
// replica publishers connect from separate goroutines (in production,
// separate machines), push physically divergent presentations of the same
// logical query result, and one replica dies mid-run. A subscriber receives
// the single merged stream and verifies it against the ground truth.
package main

import (
	"fmt"
	"os"
	"sync"

	"lmerge"
	"lmerge/internal/core"
	"lmerge/internal/gen"
	"lmerge/internal/server"
)

func main() {
	script := gen.NewScript(gen.Config{
		Events:        1500,
		Seed:          5,
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
	fmt.Printf("lmerge server on %s (algorithm R3)\n", srv.Addr())

	sub, err := server.Subscribe(srv.Addr())
	if err != nil {
		panic(err)
	}
	defer sub.Close()

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pub, err := server.Connect(srv.Addr(), lmerge.MinTime)
			if err != nil {
				panic(err)
			}
			defer pub.Close()
			stream := script.Render(gen.RenderOptions{
				Seed:       int64(40 + i),
				Disorder:   0.2 + 0.1*float64(i),
				StableFreq: 0.03,
			})
			if i == 1 {
				// Replica 1 crashes a third of the way through.
				stream = stream[:len(stream)/3]
				fmt.Printf("replica %d: will fail after %d elements\n", i, len(stream))
			}
			if err := pub.SendStream(stream); err != nil {
				panic(err)
			}
			fmt.Printf("replica %d: delivered %d elements (stream id %d)\n", i, len(stream), pub.ID())
		}(i)
	}

	// Consume the merged stream until it completes.
	out := lmerge.NewTDB()
	elements := 0
	for {
		e, ok := sub.Next()
		if !ok {
			break
		}
		if err := out.Apply(e); err != nil {
			panic(fmt.Sprintf("merged stream invalid: %v", err))
		}
		elements++
		if e.Kind == lmerge.KindStable && e.T() == lmerge.Infinity {
			break
		}
	}
	wg.Wait()

	fmt.Printf("\nsubscriber received %d merged elements\n", elements)
	fmt.Printf("merged TDB: %d events, stable point %v\n", out.Len(), out.Stable())
	ok := out.Equal(script.TDB())
	fmt.Printf("equals logical query result: %v\n", ok)
	st := srv.Stats()
	fmt.Printf("server stats: in=%d out=%d dropped=%d warnings=%d\n",
		st.InElements(), st.OutElements(), st.Dropped, st.ConsistencyWarnings)
	if !ok {
		os.Exit(1)
	}
}
