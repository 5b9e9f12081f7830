package core

import (
	"errors"
	"fmt"

	"repro/internal/edge"
	"repro/internal/selection"
)

// This file is the System-level half of a mesh handover (internal/mesh):
// the old owner exports a user's complete serving state, the mesh ships
// it to the new owner, and the new owner imports it. Each member has its
// own receiver edge, so receiver-side individual models migrate too, and
// the per-user noise sequence rides along so the user's channel-noise
// stream continues bit-identically.

// UserExport is one user's migratable serving state.
type UserExport struct {
	User string
	// NoiseSeq is the user's next channel-noise sequence number
	// (PerUserNoise mode).
	NoiseSeq uint64
	// Sender and Receiver hold the individual models each edge side
	// caches for the user.
	Sender   []*edge.ExportedModel
	Receiver []*edge.ExportedModel
	// Belief is the user's domain-selection posterior, when the selector
	// carries one (sticky); nil otherwise.
	Belief []float64
	// Buffers are the user's pending federated-update transactions, so
	// the next individual-model update fires at the same threshold
	// crossing on the new owner.
	Buffers []edge.BufferState
}

// SenderBytes sums the sender-side migration payload — the figure a
// handover reports as MigratedBytes.
func (e *UserExport) SenderBytes() int64 {
	var total int64
	for _, m := range e.Sender {
		total += m.SizeBytes()
	}
	return total
}

// ExportUserForHandover serializes the user's individual models from both
// edge sides plus their noise sequence, under the user's lock so no
// transmit is mid-flight while the state is captured. Models evicted
// between enumeration and export are skipped: the user simply
// re-personalizes on the new node.
func (s *System) ExportUserForHandover(user string) (*UserExport, error) {
	st := s.userState(user)
	st.mu.Lock()
	defer st.mu.Unlock()
	out := &UserExport{User: user, NoiseSeq: st.noiseSeq}
	export := func(srv *edge.Server, dst *[]*edge.ExportedModel) error {
		for _, domain := range srv.UserDomains(user) {
			exp, err := srv.ExportUserModel(domain, user)
			if errors.Is(err, edge.ErrNoIndividual) {
				continue
			}
			if err != nil {
				return fmt.Errorf("core: export %s/%s: %w", user, domain, err)
			}
			*dst = append(*dst, exp)
		}
		return nil
	}
	if err := export(s.Sender, &out.Sender); err != nil {
		return nil, err
	}
	if err := export(s.Receiver, &out.Receiver); err != nil {
		return nil, err
	}
	if bc, ok := st.sel.(selection.BeliefCarrier); ok {
		out.Belief = bc.ExportBelief()
	}
	out.Buffers = s.Sender.ExportUserBuffers(user)
	return out, nil
}

// ImportUserFromHandover installs a migrated user's serving state: both
// edge sides' individual models and the noise sequence, under the user's
// lock. The first transmit after import continues the user's noise
// stream exactly where the old owner left it.
func (s *System) ImportUserFromHandover(exp *UserExport) error {
	if exp == nil {
		return errors.New("core: nil handover export")
	}
	st := s.userState(exp.User)
	st.mu.Lock()
	defer st.mu.Unlock()
	if exp.NoiseSeq > st.noiseSeq {
		st.noiseSeq = exp.NoiseSeq
	}
	for _, m := range exp.Sender {
		if err := s.Sender.ImportUserModel(m); err != nil {
			return fmt.Errorf("core: import sender %s/%s: %w", m.User, m.Domain, err)
		}
	}
	for _, m := range exp.Receiver {
		if err := s.Receiver.ImportUserModel(m); err != nil {
			return fmt.Errorf("core: import receiver %s/%s: %w", m.User, m.Domain, err)
		}
	}
	if len(exp.Belief) > 0 {
		if bc, ok := st.sel.(selection.BeliefCarrier); ok {
			bc.ImportBelief(exp.Belief)
		}
	}
	if len(exp.Buffers) > 0 {
		s.Sender.ImportUserBuffers(exp.User, exp.Buffers)
	}
	return nil
}

// DropUserAfterHandover removes the exported individual models from both
// local edges — the source side of a completed handover push. Dropping
// only what was exported keeps the operation idempotent against models
// created concurrently (none can be: the exporter holds no transmit for
// the user once ownership moved).
func (s *System) DropUserAfterHandover(exp *UserExport) {
	if exp == nil {
		return
	}
	st := s.userState(exp.User)
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, m := range exp.Sender {
		s.Sender.DropUserModel(m.Domain, m.User)
	}
	for _, m := range exp.Receiver {
		s.Receiver.DropUserModel(m.Domain, m.User)
	}
	if len(exp.Buffers) > 0 {
		s.Sender.DropUserBuffers(exp.User)
	}
}
