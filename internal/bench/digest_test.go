package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// resultDigests are the sha256s of the rendered tables of every
// deterministic experiment at Quick() on the serial kernel. They pin every
// simulated time the suite prints. A host-only change must leave them alone;
// a PR that moves one updates it here and says which simulated quantity
// changed and why. kernelscale is deliberately absent: its rows print kernel
// event and window counts, which are costs of the simulator, not results of
// the simulation.
//
// The second block was taken at the commit before the point cache existed,
// when every experiment simulated all it plots: fig2 with fig1, fig9 with
// fig11, fig10 with fig12 and bitvector, fig13 with hybrid are the pairs the
// cache serves from one simulation, and the test runs them on two workers,
// so either twin may be the one that simulates. The third block was taken at
// the commit before experiments became rows of declaration tables.
var resultDigests = map[string]string{
	"table1":    "1910f2e8ccef6e7e1c94185766ccc8505f526e36d2dffc2711f4e430d6266621",
	"table2":    "c859a2870a4952fc332d67a81b52187376234db5cca1bfb464455366b3ab36f6",
	"table3":    "6e7477210c2a7b06ea37107c92e22c8b4c654c37b6909fc3b72bd5f23de13e53",
	"fig1":      "1ad3d757cfec864ca29828be7ad9d9645de14c854da225ad49c240266ab6c714",
	"fig9":      "28540e9b6d91ea41eee127643bba6d55cf9f808e6654d3029f6ea0f47fad6435",
	"multiuser": "39386024342c039a6e78dc132f649899649530d2668921df5a427fe0c7331dab",
	"degraded":  "4d97479a29ec403d27d8730ebd5550d578ed80dcbce56c617bb5de6b4eb29dad",

	"fig2":      "6f3f4f37baec4f0a6db2eb6c812c0b1d795e92d8cc17d2caeeb27bdf9ae4d6e5",
	"fig10":     "eb0c19fe7f755a3b847fd341ce86907593f948e539d8a515cfc726d264d315e0",
	"fig11":     "844390e3d0a0994ba22ebe387ba0000551a5a552acb60a4afdbfbbc9c5f74edc",
	"fig12":     "b76beff9561d2e287d135b2204a6a80c974a7587547314b58f69d8214baf1f9d",
	"fig13":     "72bd0968ace7a8d25817b4e3d5dccb239b9624fb7ae8f30bc31b80b8b4e78751",
	"hybrid":    "13d4eddd4bc17ff4140fbf672a21917b3ddcb391c5594791dfe87d44be0b452b",
	"bitvector": "072772340cd507b2db3e3b3e9de0ab29e9f0396ea03d273390a3b5a2fa6c3436",

	"fig3":             "7fa009608aba4927339f67fa7ec13ae2592b455ded66a2787d771fa07382b4ff",
	"fig4":             "37302d62128c52c73077171b58bbd5018a50d71ef1ab2790bcfaaba62b676c1c",
	"fig5":             "7be3e1107dabb62070ddf69fad7cef88d1a248231b99f84c990de7d625da80d9",
	"fig6":             "b9ce88df56116244773c289af88fb9b232934a80530200625b17acc60a77a853",
	"fig7":             "17206ae878877319c784354aedf14c7fd236d9914c9f8b5bdf81ed3436d0f3c9",
	"fig8":             "58bf2aff3197c465a79006c9c9e322312777722d067277383372744795c82ff3",
	"fig14":            "bbaefc4b5bf40eb5bc13d6aee80cef34a179014b97b7237c5d589f4986ffb2c3",
	"fig15":            "2728b7295ee0b1a54f98c45defcb5d6cb0a500ee9cbe85191b564ba1938256ac",
	"aggregate":        "8c378261dc35cd01cbab204863fca36b3f3b7c63a082b9d83030259e977e749e",
	"availability":     "71d42bfed384db598fe4a63d5e87acf33dd63569a45bac7dec238976ff0b0013",
	"netgen":           "006e1c521aaeaee143aaf6070dfb01edc0f69229ca5e5cc03b6d41f893ee39a3",
	"pagesize-default": "c5992bbe91ed9a9ccd2d01fb33aba119eba0aa7de8abdd717ab154573f4dfd1e",
	"placement":        "6d57e461d86b06d49e21dd97ac2bce99d1490f793cf2d54fef33294160236e4e",
	"recovery":         "ecee9754af8f77d3b891ae77684475f64dfb6d8d628f2e5e80f36fd08e33b1e9",
	"scale100":         "0dcc7024d801e6100fb419bdfdfc122ac26722bb39f2e0e6e73570c27a9af6ec",
	"scaleup":          "70098a5cfe37280deac26ad82dc9be8fb5a4f582e5dfec691776aaf22d24b8c4",
}

// suiteDigest is the sha256 of what `gammabench -quick -parallel 1` prints
// for the resultDigests experiments in -list order: one number that says
// whether anything the suite reports moved.
const suiteDigest = "7010cce33b0942b99548977520e2101a45391138f71a6f77671481a435e34866"

// TestResultDigests is the one quick-suite run that checks every result
// oracle: each table's digest and the suite's, each table's facts
// (facts_test.go) and well-formedness, and the fidelity score against its
// committed ceiling.
func TestResultDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the suite at Quick() sizes")
	}
	var exps []Experiment
	for _, e := range Experiments() {
		if _, pinned := resultDigests[e.ID]; pinned {
			exps = append(exps, e)
		}
	}
	if len(exps) != len(resultDigests) {
		t.Fatalf("%d of the %d pinned experiments are registered", len(exps), len(resultDigests))
	}
	o := Quick()
	o.Kernel = "serial"
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	var suite bytes.Buffer
	var fid fidelity
	for _, r := range RunSuite(exps, o, 2) {
		one := renderTable(r.Table)
		suite.Write(one)
		if got := digest(one); got != resultDigests[r.ID] {
			t.Errorf("%s renders to sha256 %s, committed %s: a simulated result moved\n%s", r.ID, got, resultDigests[r.ID], one)
		}
		if err := wellFormed(r.Table); err != nil {
			t.Errorf("%s: %v", r.ID, err)
		}
		for _, err := range checkFacts(r.ID, r.Table) {
			t.Error(err)
		}
		fid.add(r.Table)
	}
	if got := digest(suite.Bytes()); got != suiteDigest {
		t.Errorf("the suite renders to sha256 %s, committed %s", got, suiteDigest)
	}
	if s := fid.score(); s > fidelityCeiling {
		t.Errorf("fidelity score %v over %d published cells exceeds the committed %v", s, fid.cells, fidelityCeiling)
	} else {
		t.Logf("fidelity score %v over %d published cells", s, fid.cells)
	}
}
