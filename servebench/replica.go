package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cache"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/edge"
	"repro/internal/fl"
	"repro/internal/kb"
	"repro/internal/mat"
	"repro/internal/selection"
	"repro/internal/semantic"
	"repro/internal/text"
)

// replicaWordAccTol is how far the replica's word accuracy may sit from
// core.System.TransmitText's on the same requests. The replica draws
// channel noise from its own stream, so restored words differ by noise
// alone; everything else it reproduces exactly.
const replicaWordAccTol = 0.02

// replayResult is what the traced replay and its validation measured.
type replayResult struct {
	n          int
	pretrainS  float64
	tr         *tracer
	updates    int
	updateB    int64
	clones     int
	individual int
	selCorrect int
	tokens     int64
	symbols    int64
	senderHit  float64
	evictions  uint64
	resident   int
	overhead   float64 // replica wall time over TransmitText wall time
	wordAcc    float64 // replica
	wordAccTT  float64 // TransmitText
}

// replica replays requests through the layers of a core.System by their
// public calls, in the order core.System.TransmitText makes them, with a
// span around each call.
type replica struct {
	sys  *core.System
	corp *corpus.Corpus
	nb   *selection.NaiveBayes
	sels map[string]selection.Selector
	link channel.FeatureLink
	ts   channel.TxScratch
	tr   *tracer
	res  *replayResult
	// selected records each request's chosen domain, for the validation.
	selected []int
}

func newReplica(sys *core.System, tr *tracer, res *replayResult) *replica {
	return &replica{
		sys:  sys,
		corp: sys.Corpus,
		nb:   selection.TrainNaiveBayes(sys.Corpus, selectorPrior, selectorSeed),
		sels: make(map[string]selection.Selector),
		link: channel.FeatureLink{
			Quant: channel.Quantizer{Bits: quantBits, Lo: -1, Hi: 1},
			Code:  channel.Hamming74{},
			Mod:   channel.BPSK{},
			Ch:    &channel.AWGN{SNRdB: snrDB, Rng: mat.NewRNG(replicaNoise)},
		},
		tr:  tr,
		res: res,
	}
}

// transmit replays request i of user with the given words.
func (r *replica) transmit(i int, user string, words []string) ([]string, error) {
	tr := r.tr
	root := tr.begin(stTransmit, -1, i)
	defer tr.end(root)
	sel := r.sels[user]
	if sel == nil {
		sel = selection.NewSticky(r.nb, 0)
		r.sels[user] = sel
	}
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	sender, receiver := r.sys.Sender, r.sys.Receiver

	sp := tr.begin(stSelect, root, i)
	selected := sel.Select(words)
	tr.end(sp)
	r.selected = append(r.selected, selected)
	domain := r.corp.Domains[selected].Name

	sp = tr.begin(stAcquire, root, i)
	acq, err := sender.AcquireCodec(domain, user)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(stEncode, root, i)
	feats := acq.Model.Codec.EncodeWordsInto(sc, words)
	tr.end(sp)
	enc := edge.EncodeResult{AcquireResult: acq, Features: feats}

	rx := sc.Mat(feats.Rows, acq.Model.Codec.FeatureDim())
	sp = tr.begin(stChannel, root, i)
	stats := r.link.SendFlatScratch(&r.ts, rx.Data, feats.Data)
	tr.end(sp)

	sp = tr.begin(stDecode, root, i)
	dec, err := receiver.Decode(sc, domain, user, rx)
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	sp = tr.begin(stMismatch, root, i)
	tx, ready, err := sender.RecordTransaction(sc, domain, user, words, &enc)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sel.Feedback(1 - tx.Mismatch())

	res := r.res
	res.tokens += int64(len(words))
	res.symbols += int64(stats.Symbols)
	if acq.Individual {
		res.individual++
	}
	if ready {
		key := kb.UserKey(domain, user, kb.RoleCodec)
		if !sender.Cache().Contains(key) {
			res.clones++
		}
		if !receiver.Cache().Contains(key) {
			res.clones++
		}
		sp = tr.begin(stUpdate, root, i)
		upd, err := sender.RunUpdate(domain, user, fl.UpdateConfig{Epochs: updateEpochs, Seed: updateSeed})
		if err == nil {
			err = receiver.ApplyRemoteUpdate(upd)
		}
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("update %s/%s: %w", user, domain, err)
		}
		res.updates++
		res.updateB += int64(upd.Stats.PayloadBytes)
	}
	return dec.Words, nil
}

// newServingSystem builds a system the way a default edged does, from the
// given general models, with both edge caches warmed.
func newServingSystem(generals []*semantic.Codec, perUserNoise bool) (*core.System, error) {
	cfg := daemonCoreConfig(perUserNoise)
	cfg.Pretrained = generals
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := sys.Sender.Prefetch(sys.Corpus.Names()); err != nil {
		return nil, err
	}
	if _, err := sys.Receiver.Prefetch(sys.Corpus.Names()); err != nil {
		return nil, err
	}
	return sys, nil
}

// replay pretrains the general models (timed), then serves the first
// sp.replay requests of p serially twice: untraced through
// core.System.TransmitText, and traced through the replica on a second,
// identical system. The replica must reproduce TransmitText's selections,
// update count and cache counters exactly; failures are returned as
// check messages.
func replay(p *plan, corp *corpus.Corpus) (*replayResult, []string, error) {
	res := &replayResult{n: min(p.spec.replay, len(p.w.Requests))}
	t0 := time.Now()
	generals := semantic.PretrainAll(corp, semantic.Config{Seed: systemSeed})
	res.pretrainS = time.Since(t0).Seconds()

	reqs := p.w.Requests[:res.n]
	words := make([][]string, res.n)
	for i, rq := range reqs {
		words[i] = text.Tokenize(rq.Msg.Text())
	}

	ref, err := newServingSystem(generals, p.spec.mesh)
	if err != nil {
		return nil, nil, err
	}
	refSel := make([]int, res.n)
	var accTT float64
	t0 = time.Now()
	for i, rq := range reqs {
		out, err := ref.TransmitText(rq.User, words[i])
		if err != nil {
			return nil, nil, fmt.Errorf("TransmitText request %d: %w", i, err)
		}
		refSel[i] = out.SelectedDomain
		accTT += semantic.WordAccuracy(out.RestoredWords, canonical(corp, rq.Msg))
	}
	refTime := time.Since(t0)

	sys, err := newServingSystem(generals, p.spec.mesh)
	if err != nil {
		return nil, nil, err
	}
	res.tr = newTracer(res.n * int(numStages))
	rep := newReplica(sys, res.tr, res)
	var acc float64
	t0 = time.Now()
	for i, rq := range reqs {
		restored, err := rep.transmit(i, rq.User, words[i])
		if err != nil {
			return nil, nil, fmt.Errorf("replica request %d: %w", i, err)
		}
		if rep.selected[i] == rq.Msg.DomainIndex {
			res.selCorrect++
		}
		acc += semantic.WordAccuracy(restored, canonical(corp, rq.Msg))
	}
	res.overhead = float64(time.Since(t0)) / float64(refTime)
	res.wordAcc = acc / float64(res.n)
	res.wordAccTT = accTT / float64(res.n)
	ss := sys.Sender.CacheStats()
	res.senderHit = ss.HitRate()
	res.evictions = ss.Evictions + sys.Receiver.CacheStats().Evictions
	res.resident = sys.Sender.Cache().Len()

	var failed []string
	diff := 0
	for i := range refSel {
		if refSel[i] != rep.selected[i] {
			diff++
		}
	}
	if diff > 0 {
		failed = append(failed, fmt.Sprintf("replica: %d of %d selections differ from TransmitText", diff, res.n))
	}
	if got, want := res.updates, ref.SyncCount(); got != want {
		failed = append(failed, fmt.Sprintf("replica: %d updates, TransmitText %d", got, want))
	}
	for _, side := range []struct {
		name      string
		got, want cache.Stats
	}{
		{"sender", ss, ref.Sender.CacheStats()},
		{"receiver", sys.Receiver.CacheStats(), ref.Receiver.CacheStats()},
	} {
		if side.got != side.want {
			failed = append(failed, fmt.Sprintf("replica: %s cache counters %+v, TransmitText %+v", side.name, side.got, side.want))
		}
	}
	if d := math.Abs(res.wordAcc - res.wordAccTT); d > replicaWordAccTol {
		failed = append(failed, fmt.Sprintf("replica: word_acc %.4f vs TransmitText %.4f, beyond tolerance %.2f", res.wordAcc, res.wordAccTT, replicaWordAccTol))
	}
	return res, failed, nil
}
