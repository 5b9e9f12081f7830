package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/channel"
	"repro/internal/mat"
	"repro/internal/selection"
	"repro/internal/semantic"
)

// DefaultBatchMaxTokens caps the token count of one cross-request batch
// when Config.BatchMaxTokens is zero and batching is on. A full batch
// flushes immediately instead of waiting out the window.
const DefaultBatchMaxTokens = 512

// batcher is the cross-request dynamic batching collector. In-flight
// transmits submit jobs; the first submitter of a batch becomes its
// leader, waits out the window (or a full token budget), steals the
// accumulated batch and executes it as a handful of fused GEMMs — one
// encode, one receiver decode and one decoder-copy decode per distinct
// codec — instead of one small GEMM set per request. The moment a leader
// steals its batch the next submitter becomes the new leader, so
// collection of batch N+1 overlaps execution of batch N.
//
// There is no background goroutine: with no traffic the batcher is
// completely idle, and shutdown needs no coordination.
//
// Batching is transparent per request. Every fused kernel keeps the exact
// serial accumulation order per output element and each output row
// depends only on its own input row, so a request's bytes are identical
// whether it ran solo or inside any batch (see Codec.EncodeBatchInto).
// Channel noise draws happen under linkMu in batch arrival order, exactly
// as solo transmits draw in global arrival order; in PerUserNoise mode
// each job's noise instead comes from its own (user, seq) derived seed on
// a pooled channel instance, so the crossings run lock-free in parallel
// and batching is noise-transparent there too.
type batcher struct {
	sys       *System
	window    time.Duration
	maxTokens int

	mu       sync.Mutex
	pending  []*batchJob
	tokens   int
	leading  bool      // a leader is currently collecting
	lastGrow time.Time // when pending last gained a job

	// free recycles pending-slice backing arrays: batches can overlap, so
	// the buffers rotate through a free list instead of double-buffering.
	free [][]*batchJob

	jobPool  sync.Pool
	execPool sync.Pool

	// Occupancy buckets: 1, 2, 3-4, 5-8, 9-16, 17+ requests per batch.
	batches     atomic.Int64
	batchedReqs atomic.Int64
	occupancy   [6]atomic.Int64
}

// BatchStats is a snapshot of the collector's counters.
type BatchStats struct {
	// Batches counts executed batches; BatchedRequests the transmits
	// served through them.
	Batches         int64
	BatchedRequests int64
	// Occupancy histograms requests-per-batch into the buckets
	// 1, 2, 3-4, 5-8, 9-16, 17+.
	Occupancy [6]int64
}

// batchJob is one transmit's slot in a batch. The request side fills the
// input fields (words and the codecs it acquired under its user lock);
// the leader fills the output fields and signals done. Output slices are
// backed by the batch's scratch arena: the request side must copy what it
// keeps, then call release exactly once.
type batchJob struct {
	words       []string
	senderCodec *semantic.Codec
	recvCodec   *semantic.Codec

	// reseed/noiseSeed select a per-user derived noise stream for this
	// job's channel crossing (PerUserNoise mode): the leader reseeds the
	// channel RNG to noiseSeed before this job's draw, making the noise
	// independent of batch composition and bit-identical to solo serving.
	reseed    bool
	noiseSeed uint64

	// Row offsets of this job inside its sender/receiver codec groups.
	sgIdx, sgOff int
	rgIdx, rgOff int

	linkStats channel.LinkStats
	concepts  []int // receiver-decoded concepts (batch scratch)
	decoded   []int // sender decoder-copy concepts (batch scratch)

	exec *batchExec
	done chan struct{} // buffered 1, reused across the job's pool lives
}

// batchExec owns one batch execution's scratch arena and grouping
// buffers. Executions can overlap (pipelining), so this state is pooled
// per execution rather than owned by the batcher. The scratch is returned
// to the mat pool when the last job releases it.
type batchExec struct {
	sc      *mat.Scratch
	refs    atomic.Int32
	sgroups []codecGroup
	rgroups []codecGroup
	msgs    [][]string
	pool    *sync.Pool
}

// codecGroup collects the jobs of one batch that share a codec instance
// AND its kernel tier: a fused GEMM pass runs on one tier, so requests
// that observed different tiers of the same codec (a SetTier racing the
// collect window) must not share a pass.
type codecGroup struct {
	codec  *semantic.Codec
	tier   semantic.Tier
	tokens int
	feats  *mat.Dense // packed per-token features (encode or rx)
}

// release drops one job's reference to the batch scratch, returning it to
// the mat pool when every job has released.
func (x *batchExec) release() {
	if x.refs.Add(-1) == 0 {
		mat.PutScratch(x.sc)
		x.sc = nil
		x.sgroups = x.sgroups[:0]
		x.rgroups = x.rgroups[:0]
		x.msgs = x.msgs[:0]
		x.pool.Put(x)
	}
}

// newBatcher builds a collector for sys. window must be positive;
// maxTokens <= 0 selects DefaultBatchMaxTokens.
func newBatcher(sys *System, window time.Duration, maxTokens int) *batcher {
	if maxTokens <= 0 {
		maxTokens = DefaultBatchMaxTokens
	}
	b := &batcher{sys: sys, window: window, maxTokens: maxTokens}
	b.jobPool.New = func() interface{} {
		return &batchJob{done: make(chan struct{}, 1)}
	}
	b.execPool.New = func() interface{} {
		return &batchExec{pool: &b.execPool}
	}
	return b
}

// getJob returns a pooled job ready to fill.
func (b *batcher) getJob() *batchJob {
	return b.jobPool.Get().(*batchJob)
}

// putJob recycles a consumed job.
func (b *batcher) putJob(j *batchJob) {
	*j = batchJob{done: j.done}
	b.jobPool.Put(j)
}

// submit enqueues j and blocks until its batch has executed. The first
// submitter while no leader is collecting becomes the leader and runs the
// batch itself.
func (b *batcher) submit(j *batchJob) {
	b.mu.Lock()
	if b.pending == nil {
		if n := len(b.free); n > 0 {
			b.pending, b.free = b.free[n-1], b.free[:n-1]
		}
	}
	b.pending = append(b.pending, j)
	b.tokens += len(j.words)
	b.lastGrow = time.Now()
	if !b.leading {
		b.leading = true
		b.mu.Unlock()
		b.lead()
		<-j.done
		return
	}
	b.mu.Unlock()
	<-j.done
}

// lead collects until the window expires, the token budget fills, or the
// queue goes quiet, then steals the batch and executes it. The window is
// a maximum linger, not a mandatory wait: once no new job has arrived for
// window/8 the leader flushes early — in a closed-loop lull every
// in-flight request is already in the batch and waiting out the tail of
// the window would be dead air. Short windows spin with Gosched so
// microsecond budgets are honored; longer windows sleep in quiet-period
// increments so the early flush still triggers promptly.
func (b *batcher) lead() {
	now := time.Now()
	deadline := now.Add(b.window)
	quiet := b.window / 8
	if quiet < time.Microsecond {
		quiet = time.Microsecond
	}
	for {
		b.mu.Lock()
		now = time.Now()
		if b.tokens >= b.maxTokens || !now.Before(deadline) || now.Sub(b.lastGrow) >= quiet {
			jobs := b.pending
			b.pending = nil
			b.tokens = 0
			b.leading = false
			b.mu.Unlock()
			b.execute(jobs)
			return
		}
		b.mu.Unlock()
		if remaining := time.Until(deadline); remaining > 200*time.Microsecond {
			nap := remaining - 100*time.Microsecond
			if quiet < nap {
				nap = quiet
			}
			time.Sleep(nap)
		} else {
			runtime.Gosched()
		}
	}
}

// occBucket maps a batch occupancy to its histogram bucket.
func occBucket(n int) int {
	switch {
	case n <= 1:
		return 0
	case n == 2:
		return 1
	case n <= 4:
		return 2
	case n <= 8:
		return 3
	case n <= 16:
		return 4
	default:
		return 5
	}
}

// groupOf returns the index of the (codec, tier) group in *groups,
// appending a new group on first sight. Batches see a handful of distinct
// codecs, so a linear scan beats a map (and allocates nothing once the
// slice is warm).
func groupOf(groups *[]codecGroup, codec *semantic.Codec, tier semantic.Tier) int {
	for i := range *groups {
		if (*groups)[i].codec == codec && (*groups)[i].tier == tier {
			return i
		}
	}
	*groups = append(*groups, codecGroup{codec: codec, tier: tier})
	return len(*groups) - 1
}

// execute runs one stolen batch: fused encode per sender codec, the
// physical channel (parallel pooled crossings in PerUserNoise mode, the
// shared channel in arrival order under one linkMu hold otherwise),
// fused receiver decode per receiver codec, fused decoder-copy decode
// per sender codec, then signals every waiting request.
func (b *batcher) execute(jobs []*batchJob) {
	b.batches.Add(1)
	b.batchedReqs.Add(int64(len(jobs)))
	b.occupancy[occBucket(len(jobs))].Add(1)

	x := b.execPool.Get().(*batchExec)
	x.sc = mat.GetScratch()
	x.refs.Store(int32(len(jobs)))

	// Group jobs by sender and receiver codec instance, recording each
	// job's token-row offset within its groups.
	for _, j := range jobs {
		j.exec = x
		j.sgIdx = groupOf(&x.sgroups, j.senderCodec, j.senderCodec.Tier())
		j.sgOff = x.sgroups[j.sgIdx].tokens
		x.sgroups[j.sgIdx].tokens += len(j.words)
		j.rgIdx = groupOf(&x.rgroups, j.recvCodec, j.recvCodec.Tier())
		j.rgOff = x.rgroups[j.rgIdx].tokens
		x.rgroups[j.rgIdx].tokens += len(j.words)
	}

	// Fused encode: one gather + GEMM + tanh per sender codec.
	for gi := range x.sgroups {
		g := &x.sgroups[gi]
		x.msgs = x.msgs[:0]
		for _, j := range jobs {
			if j.sgIdx == gi {
				x.msgs = append(x.msgs, j.words)
			}
		}
		g.feats = g.codec.EncodeBatchInto(x.sc, x.msgs)
	}

	// Physical channel: each job's received features go straight into the
	// packed per-receiver-codec matrices. In PerUserNoise mode the
	// crossings are independent — every job's noise comes from its own
	// derived seed — so they shard across the worker pool on pooled
	// channel instances with no lock; each job writes a disjoint row
	// range of its group matrix. Classic mode draws from the shared RNG
	// in batch arrival order under a single linkMu hold, exactly as solo
	// transmits draw in global arrival order.
	for gi := range x.rgroups {
		g := &x.rgroups[gi]
		g.feats = x.sc.Mat(g.tokens, g.codec.FeatureDim())
	}
	if b.sys.userNoise && !b.sys.serialLink {
		mat.ParallelFor(len(jobs), 1, func(lo, hi int) {
			inst := b.sys.linkPool.Get()
			for i := lo; i < hi; i++ {
				j := jobs[i]
				ed := j.senderCodec.FeatureDim()
				rd := j.recvCodec.FeatureDim()
				enc := x.sgroups[j.sgIdx].feats.Data[j.sgOff*ed : (j.sgOff+len(j.words))*ed]
				rx := x.rgroups[j.rgIdx].feats.Data[j.rgOff*rd : (j.rgOff+len(j.words))*rd]
				j.linkStats = inst.SendSeeded(j.noiseSeed, rx, enc)
			}
			b.sys.linkPool.Put(inst)
		})
	} else {
		b.sys.linkMu.Lock()
		for _, j := range jobs {
			ed := j.senderCodec.FeatureDim()
			rd := j.recvCodec.FeatureDim()
			enc := x.sgroups[j.sgIdx].feats.Data[j.sgOff*ed : (j.sgOff+len(j.words))*ed]
			rx := x.rgroups[j.rgIdx].feats.Data[j.rgOff*rd : (j.rgOff+len(j.words))*rd]
			if j.reseed {
				b.sys.noiseRng.Reseed(j.noiseSeed)
			}
			j.linkStats = b.sys.link.SendFlatScratch(&b.sys.linkScratch, rx, enc)
		}
		b.sys.linkMu.Unlock()
	}

	// Fused receiver decode per receiver codec; jobs get subslice views.
	for gi := range x.rgroups {
		g := &x.rgroups[gi]
		concepts := x.sc.Ints(g.tokens)
		g.codec.DecodeFeaturesInto(x.sc, g.feats, concepts)
		for _, j := range jobs {
			if j.rgIdx == gi {
				j.concepts = concepts[j.rgOff : j.rgOff+len(j.words)]
			}
		}
	}

	// Fused decoder-copy decode per sender codec, straight off the packed
	// encode features (the §II-C mismatch round trip).
	for gi := range x.sgroups {
		g := &x.sgroups[gi]
		decoded := x.sc.Ints(g.tokens)
		g.codec.DecodeFeaturesInto(x.sc, g.feats, decoded)
		for _, j := range jobs {
			if j.sgIdx == gi {
				j.decoded = decoded[j.sgOff : j.sgOff+len(j.words)]
			}
		}
	}

	for _, j := range jobs {
		j.done <- struct{}{}
	}

	// Recycle the pending-slice buffer for a future batch.
	for i := range jobs {
		jobs[i] = nil
	}
	b.mu.Lock()
	b.free = append(b.free, jobs[:0])
	b.mu.Unlock()
}

// Stats snapshots the collector counters.
func (b *batcher) Stats() BatchStats {
	st := BatchStats{
		Batches:         b.batches.Load(),
		BatchedRequests: b.batchedReqs.Load(),
	}
	for i := range b.occupancy {
		st.Occupancy[i] = b.occupancy[i].Load()
	}
	return st
}

// BatchStats snapshots the cross-request batcher's counters; the zero
// value reports batching off.
func (s *System) BatchStats() BatchStats {
	if s.batcher == nil {
		return BatchStats{}
	}
	return s.batcher.Stats()
}

// BatchingEnabled reports whether the cross-request collector is active.
func (s *System) BatchingEnabled() bool { return s.batcher != nil }

// transmitBatched is the cross-request batched variant of
// transmitSelected: codec acquisition, transaction recording, selector
// feedback and the update process stay request-side under the user lock,
// while the per-token GEMMs and the channel crossing run inside the
// collector's fused batch. Per-request outputs are bit-identical to the
// solo path.
func (s *System) transmitBatched(sc *mat.Scratch, st *userState, user string, words []string, selected int, sel selection.Selector) (*Result, []int, error) {
	domain := s.Corpus.Domains[selected].Name
	sender := s.Sender

	// Codec acquisition happens request-side, exactly like the solo
	// path's Encode/Decode: cache hits, fetch latencies and
	// individual-model choice are per-request state guarded by the user
	// lock, not batch state.
	encAcq, err := sender.AcquireCodec(domain, user)
	if err != nil {
		return nil, nil, err
	}
	decAcq, err := s.Receiver.AcquireCodec(domain, user)
	if err != nil {
		return nil, nil, err
	}

	j := s.batcher.getJob()
	j.words = words
	j.senderCodec = encAcq.Model.Codec
	j.recvCodec = decAcq.Model.Codec
	if s.userNoise {
		// The sequence advances request-side under the user lock, exactly
		// like the solo path, so batch membership never perturbs it.
		j.reseed = true
		j.noiseSeed = s.nextNoiseSeed(st, user)
	}
	s.batcher.submit(j)

	// From here the job's output slices live in the batch scratch: copy
	// everything we keep before releasing.
	airTime := time.Duration(float64(j.linkStats.Symbols) / s.symbolRateHz * float64(time.Second))
	airTime += s.edgeLink.Latency
	payloadBytes := j.linkStats.PayloadBytes()
	symbols := j.linkStats.Symbols
	restored := j.recvCodec.RestoreWords(j.concepts)
	concepts := sc.Ints(len(j.concepts))
	copy(concepts, j.concepts)

	tx, ready, err := sender.RecordDecodedTransaction(domain, user, words, j.decoded)
	j.exec.release()
	s.batcher.putJob(j)
	if err != nil {
		return nil, nil, err
	}
	if sel != nil {
		sel.Feedback(1 - tx.Mismatch())
	}

	encCompute := time.Duration(len(words)) * sender.ComputePerToken()
	decCompute := time.Duration(len(words)) * s.Receiver.ComputePerToken()
	res := &Result{
		SelectedDomain: selected,
		RestoredWords:  restored,
		Mismatch:       tx.Mismatch(),
		PayloadBytes:   payloadBytes,
		Symbols:        symbols,
		Latency:        encAcq.FetchLatency + encCompute + airTime + decAcq.FetchLatency + decCompute,
		EncCacheHit:    encAcq.CacheHit,
		DecCacheHit:    decAcq.CacheHit,
		UsedIndividual: encAcq.Individual,
	}

	if ready && !s.cfg.DisableAutoUpdate {
		bytes, err := s.ProcessUpdate(domain, user)
		if err == nil {
			res.UpdateFired = true
			res.UpdateBytes = bytes
		}
	}
	return res, concepts, nil
}
