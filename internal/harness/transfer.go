package harness

import (
	"fmt"
	"io"

	"eventhit/internal/dataset"
	"eventhit/internal/mathx"
)

// TransferRow is the evaluation of one trained bundle on one stream.
type TransferRow struct {
	StreamSeed int64
	Same       bool // true for the training stream's own test region
	EHO, EHCR  Point
}

// Transfer trains EventHit once and evaluates it on freshly generated
// streams from the same dataset spec (new arrivals, new noise, same
// statistics). In deployment this is the difference between the camera
// the model was trained on and every other camera watching a similar
// scene; large degradation here would mean the model memorizes its
// training stream instead of the event dynamics.
func Transfer(task Task, opt Options, streams int, seed int64, w io.Writer) ([]TransferRow, error) {
	if streams < 1 {
		return nil, fmt.Errorf("harness: need at least one transfer stream")
	}
	env, err := NewEnv(task, opt, seed)
	if err != nil {
		return nil, err
	}
	var rows []TransferRow
	evalStream := func(streamSeed int64, recs []dataset.Record, same bool) error {
		eho, ehcr, err := env.headlinePoints(recs)
		if err != nil {
			return err
		}
		rows = append(rows, TransferRow{StreamSeed: streamSeed, Same: same, EHO: eho, EHCR: ehcr})
		return nil
	}
	if err := evalStream(seed, env.Splits.Test, true); err != nil {
		return nil, err
	}
	for i := 0; i < streams; i++ {
		sSeed := seed + 1000 + int64(i)
		cam, err := env.camera(fmt.Sprintf("foreign-%d", i), sSeed, 0)
		if err != nil {
			return nil, err
		}
		// Uniform records over the whole foreign stream (no training there,
		// so no region split is needed), drawn from the stream seed's RNG
		// after the split that generated the stream.
		g := mathx.NewRNG(sSeed)
		g.Split(1)
		var recs []dataset.Record
		lo, hi := env.Cfg.Window-1, cam.End-env.Cfg.Horizon
		for len(recs) < opt.NTest {
			r, err := dataset.BuildRecord(cam.Source, lo+g.Intn(hi-lo+1), env.Cfg)
			if err != nil {
				return nil, err
			}
			recs = append(recs, r)
		}
		if err := evalStream(sSeed, recs, false); err != nil {
			return nil, err
		}
	}
	t := NewTable(fmt.Sprintf("Cross-stream transfer on %s (trained on seed %d only)", task.Name, seed),
		"stream", "EHO REC", "EHO SPL", "EHCR(.9) REC", "EHCR(.9) SPL")
	for _, r := range rows {
		name := fmt.Sprintf("foreign (seed %d)", r.StreamSeed)
		if r.Same {
			name = "training stream (held-out region)"
		}
		t.Addf(name, r.EHO.REC, r.EHO.SPL, r.EHCR.REC, r.EHCR.SPL)
	}
	t.Render(w)
	return rows, nil
}
