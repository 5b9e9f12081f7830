package edge

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"repro/internal/kb"
	"repro/internal/nn"
)

// ErrNoIndividual reports that the user has no individual model cached on
// this server (never personalized here, or the unpinned entry was
// evicted). Handover treats it as "nothing to migrate".
var ErrNoIndividual = errors.New("edge: no individual model")

// This file implements individual-model handover: when a user moves
// between edge servers (the mobility scenario of 6G deployments), the
// serving infrastructure migrates their personalized codec so the §II-B
// personalization survives the move instead of being relearned from
// scratch.

// ExportedModel is a serialized individual model ready for migration.
type ExportedModel struct {
	Domain  string
	User    string
	Version int
	// Params is the full parameter payload (encoder + decoder: unlike the
	// §II-D decoder sync, a handover moves the whole individual model).
	Params []byte
}

// SizeBytes returns the migration payload size.
func (m *ExportedModel) SizeBytes() int64 {
	return int64(len(m.Params) + len(m.Domain) + len(m.User) + 8)
}

// UserDomains returns the domains for which this server currently caches
// an individual model for user, in deterministic (sorted) order: the set
// of models a handover must migrate. Only the user's own handful of keys
// is sorted, never the full cache.
func (s *Server) UserDomains(user string) []string {
	keys := s.cache.KeysWhere(func(k kb.Key) bool {
		return k.User == user && k.Role == kb.RoleCodec
	})
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = k.Domain
	}
	sort.Strings(out)
	return out
}

// DropUserModel removes the user's individual model for domain from the
// local cache — the source side of a completed handover — reporting
// whether it was present.
func (s *Server) DropUserModel(domain, user string) bool {
	return s.cache.Remove(kb.UserKey(domain, user, kb.RoleCodec))
}

// ExportUserModel serializes the user's individual model for migration to
// a peer edge. It fails if the user has no individual model here.
func (s *Server) ExportUserModel(domain, user string) (*ExportedModel, error) {
	acq, err := s.AcquireCodec(domain, user)
	if err != nil {
		return nil, err
	}
	if !acq.Individual {
		return nil, fmt.Errorf("edge %s: %w for %s/%s", s.name, ErrNoIndividual, user, domain)
	}
	var buf bytes.Buffer
	if _, err := acq.Model.Codec.Params().WriteTo(&buf); err != nil {
		return nil, fmt.Errorf("edge %s: export %s/%s: %w", s.name, user, domain, err)
	}
	return &ExportedModel{
		Domain:  domain,
		User:    user,
		Version: acq.Model.Version,
		Params:  buf.Bytes(),
	}, nil
}

// ImportUserModel installs a migrated individual model, creating the local
// individual entry from the general model first and then overwriting its
// parameters. Older versions than the locally cached one are rejected.
func (s *Server) ImportUserModel(m *ExportedModel) error {
	params, err := nn.ReadParamSet(bytes.NewReader(m.Params))
	if err != nil {
		return fmt.Errorf("edge %s: import %s/%s: %w", s.name, m.User, m.Domain, err)
	}
	model, _, err := s.Personalize(m.Domain, m.User)
	if err != nil {
		return err
	}
	if model.Version > m.Version {
		return fmt.Errorf("edge %s: import %s/%s: local version %d newer than %d",
			s.name, m.User, m.Domain, model.Version, m.Version)
	}
	target := model.Codec.Params()
	if len(target.Params) != len(params.Params) {
		return fmt.Errorf("edge %s: import %s/%s: parameter count mismatch", s.name, m.User, m.Domain)
	}
	for i, p := range params.Params {
		t := target.Params[i]
		if t.Name != p.Name || t.M.Rows != p.M.Rows || t.M.Cols != p.M.Cols {
			return fmt.Errorf("edge %s: import %s/%s: tensor %q shape mismatch",
				s.name, m.User, m.Domain, p.Name)
		}
	}
	_ = model.Codec.WriteWeights(func() error { // shapes were checked above
		target.CopyFrom(params)
		return nil
	})
	model.Version = m.Version
	return nil
}
