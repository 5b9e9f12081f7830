package edge

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/fl"
	"repro/internal/mat"
	"repro/internal/semantic"
)

// personalizeOn runs enough idiolect traffic through srv to produce a
// fine-tuned individual model for u1, returning the idiolect.
func personalizeOn(t *testing.T, srv *Server, corp *corpus.Corpus, seed uint64) *corpus.Idiolect {
	t.Helper()
	rng := mat.NewRNG(seed)
	idio := corpus.NewIdiolect(corp, rng.Split(), 0.5)
	gen := corpus.NewGenerator(corp, rng.Split())
	srv.bufferThreshold = 24
	for i := 0; i < 24; i++ {
		m := gen.Message(corp.Domain("it").Index, idio)
		if _, _, err := srv.RecordTransaction(nil, "it", "u1", m.Words, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srv.RunUpdate("it", "u1", fl.UpdateConfig{Epochs: 3, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	return idio
}

func TestHandoverPreservesModel(t *testing.T) {
	corp, _ := cloudFixture(t)
	edgeA := newServer(t, 6, nil)
	edgeB := newServer(t, 6, nil)
	idio := personalizeOn(t, edgeA, corp, 51)

	exported, err := edgeA.ExportUserModel("it", "u1")
	if err != nil {
		t.Fatal(err)
	}
	if exported.SizeBytes() <= 0 || exported.Version != 1 {
		t.Fatalf("export metadata wrong: %+v", exported)
	}
	if err := edgeB.ImportUserModel(exported); err != nil {
		t.Fatal(err)
	}

	// The imported model must decode identically to the source model.
	a, err := edgeA.AcquireCodec("it", "u1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := edgeB.AcquireCodec("it", "u1")
	if err != nil {
		t.Fatal(err)
	}
	if !b.Individual {
		t.Fatal("import did not create an individual model")
	}
	if b.Model.Version != 1 {
		t.Fatalf("imported version = %d", b.Model.Version)
	}
	gen := corpus.NewGenerator(corp, mat.NewRNG(52))
	for i := 0; i < 20; i++ {
		m := gen.Message(corp.Domain("it").Index, idio)
		x := a.Model.Codec.RoundTrip(m.Words)
		y := b.Model.Codec.RoundTrip(m.Words)
		for j := range x {
			if x[j] != y[j] {
				t.Fatal("imported model decodes differently")
			}
		}
	}
}

func TestExportWithoutIndividualModel(t *testing.T) {
	srv := newServer(t, 4, nil)
	if _, err := srv.ExportUserModel("it", "nobody"); err == nil {
		t.Fatal("export without individual model accepted")
	}
}

func TestImportRejectsGarbage(t *testing.T) {
	srv := newServer(t, 4, nil)
	err := srv.ImportUserModel(&ExportedModel{
		Domain: "it", User: "u1", Version: 1, Params: []byte("junk"),
	})
	if err == nil {
		t.Fatal("garbage import accepted")
	}
}

func TestImportRejectsStaleVersion(t *testing.T) {
	corp, _ := cloudFixture(t)
	edgeA := newServer(t, 6, nil)
	edgeB := newServer(t, 6, nil)
	personalizeOn(t, edgeA, corp, 53)
	exported, err := edgeA.ExportUserModel("it", "u1")
	if err != nil {
		t.Fatal(err)
	}
	if err := edgeB.ImportUserModel(exported); err != nil {
		t.Fatal(err)
	}
	// A second import with an older version must be rejected.
	stale := *exported
	stale.Version = 0
	if err := edgeB.ImportUserModel(&stale); err == nil {
		t.Fatal("stale import accepted")
	}
}

func TestImportRejectsWrongDomainShapes(t *testing.T) {
	corp, _ := cloudFixture(t)
	edgeA := newServer(t, 6, nil)
	edgeB := newServer(t, 6, nil)
	personalizeOn(t, edgeA, corp, 54)
	exported, err := edgeA.ExportUserModel("it", "u1")
	if err != nil {
		t.Fatal(err)
	}
	// Claim the payload is for a different domain: tensor shapes differ.
	exported.Domain = "medical"
	if err := edgeB.ImportUserModel(exported); err == nil {
		t.Fatal("cross-domain import accepted")
	}
}

// TestImportRetiresStaleServingState is the regression test for an import
// over a warm individual model: edge B serves an older individual model
// for u1 at the f32 tier (building its reduced-precision shadows), then
// imports A's fine-tuned model. B must then encode and decode exactly like
// a fresh f32 copy of A's weights, not from shadows of the old weights.
func TestImportRetiresStaleServingState(t *testing.T) {
	corp, _ := cloudFixture(t)
	edgeA := newServer(t, 6, nil)
	edgeB := newServer(t, 6, nil)
	personalizeOn(t, edgeA, corp, 55)
	exported, err := edgeA.ExportUserModel("it", "u1")
	if err != nil {
		t.Fatal(err)
	}

	old, _, err := edgeB.Personalize("it", "u1")
	if err != nil {
		t.Fatal(err)
	}
	if err := old.Codec.SetTier(semantic.TierF32); err != nil {
		t.Fatal(err)
	}
	words := corpus.NewGenerator(corp, mat.NewRNG(56)).Message(corp.Domain("it").Index, nil).Words
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	if _, err := edgeB.Encode(sc, "it", "u1", words); err != nil {
		t.Fatal(err)
	}
	if err := edgeB.ImportUserModel(exported); err != nil {
		t.Fatal(err)
	}

	a, err := edgeA.AcquireCodec("it", "u1")
	if err != nil {
		t.Fatal(err)
	}
	ref := a.Model.Codec.Clone()
	if err := ref.SetTier(semantic.TierF32); err != nil {
		t.Fatal(err)
	}
	got, err := edgeB.Encode(sc, "it", "u1", words)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.EncodeWordsInto(sc, words)
	bad := 0
	for i, v := range got.Features.Data {
		if v != want.Data[i] {
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("after import, %d of %d feature elements differ from a fresh f32 copy of the imported weights",
			bad, len(want.Data))
	}
	x := got.Model.Codec.RoundTrip(words)
	y := ref.RoundTrip(words)
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("after import, decoder copy of %q = %d, fresh copy %d", words[i], x[i], y[i])
		}
	}
}
