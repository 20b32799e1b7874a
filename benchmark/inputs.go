package main

import (
	"sync"

	"lmerge/internal/gen"
	"lmerge/internal/temporal"
	"lmerge/internal/wire"
)

// inputs is one generated workload instance: a logical script, one
// physically divergent rendering per publisher, and the ground-truth TDB
// every subscriber's output must reconstitute to. The seed fixes all of it.
type inputs struct {
	streams  []temporal.Stream
	tdb      *temporal.TDB
	elements int // over all publishers, stables included
}

// makeInputs draws the script and renders it once per publisher. Rendering
// seeds are derived from the run seed so that -seed alone determines every
// byte a publisher sends.
func makeInputs(w workload, events int, seed int64) *inputs {
	sc := gen.NewScript(w.scriptConfig(events, seed))
	in := &inputs{streams: make([]temporal.Stream, publishers)}
	var wg sync.WaitGroup
	for p := range in.streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in.streams[p] = sc.Render(gen.RenderOptions{Seed: seed*1000003 + int64(p) + 1, Disorder: disorder})
		}()
	}
	in.tdb = sc.TDB()
	wg.Wait()
	for _, s := range in.streams {
		in.elements += len(s)
	}
	return in
}

// encodeStream returns the bytes a publisher puts on the wire for s, after
// the handshake: v2 DATA frames, or v1 JSON lines.
func encodeStream(s temporal.Stream, text bool) ([]byte, error) {
	var buf []byte
	for _, e := range s {
		if !text {
			buf = wire.AppendData(buf, e)
			continue
		}
		line, err := temporal.MarshalElement(e)
		if err != nil {
			return nil, err
		}
		buf = append(append(buf, line...), '\n')
	}
	return buf, nil
}

// batchOf is the open-loop schedule: element i of a publisher's stream is due
// in the 1 ms batch with this index, at rate elements per second over all
// publishers.
func batchOf(i, rate int) int32 {
	return int32(int64(i) * publishers * 1000 / int64(rate))
}

// dueBatches maps every event key to the earliest batch in which any
// publisher is scheduled to send its insert. A subscriber's latency sample
// for an output insert is its receipt time minus that batch's scheduled
// time, so a generator or server stall is charged to every element it delays.
func dueBatches(in *inputs, rate int) map[temporal.VsPayload]int32 {
	due := make(map[temporal.VsPayload]int32, len(in.streams[0]))
	for _, s := range in.streams {
		for i, e := range s {
			if e.Kind != temporal.KindInsert {
				continue
			}
			b := batchOf(i, rate)
			if old, ok := due[e.Key()]; !ok || b < old {
				due[e.Key()] = b
			}
		}
	}
	return due
}
