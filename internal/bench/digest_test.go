package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// resultDigests are the sha256s of the rendered tables of a cross-section of
// the suite — the paper's three tables, a selection and a join figure, the
// multi-user mix and the degraded-mode matrix — at Quick() on the serial
// kernel. They pin every simulated time these experiments print. A host-only
// change must leave them alone; a PR that moves one updates it here and says
// which simulated quantity changed and why. kernelscale is deliberately
// absent: its rows print kernel event and window counts, which are costs of
// the simulator, not results of the simulation.
//
// The second block was taken at the commit before the point cache existed,
// when every experiment simulated all it plots: fig2 with fig1, fig9 with
// fig11, fig10 with fig12 and bitvector, fig13 with hybrid are the pairs the
// cache serves from one simulation, and the test runs them in map order on
// two workers, so either twin may be the one that simulates.
var resultDigests = map[string]string{
	"table1":    "1910f2e8ccef6e7e1c94185766ccc8505f526e36d2dffc2711f4e430d6266621",
	"table2":    "8637a49a2e5b88d32316db5f01933e1b78649b224bfa903bf469162c0567819e",
	"table3":    "2c27250c9ff24cd01b8ed8245cbf68b60fa23eb3d07aa32c6ac1b8d106a35633",
	"fig1":      "1ad3d757cfec864ca29828be7ad9d9645de14c854da225ad49c240266ab6c714",
	"fig9":      "90daedddb921d6e6c04fbfe035d8fddb679a0c3bb33cbc7aa9bb09acf8fec258",
	"multiuser": "95657c0ec580504c4b562f66575bb01c0a9bf57f39ea06df57a443ea759d00d8",
	"degraded":  "b24b64e04e57beab8733553924809a57c702c9ecf857636a25328d2121fd0f74",

	"fig2":      "6f3f4f37baec4f0a6db2eb6c812c0b1d795e92d8cc17d2caeeb27bdf9ae4d6e5",
	"fig10":     "eb0c19fe7f755a3b847fd341ce86907593f948e539d8a515cfc726d264d315e0",
	"fig11":     "844390e3d0a0994ba22ebe387ba0000551a5a552acb60a4afdbfbbc9c5f74edc",
	"fig12":     "b76beff9561d2e287d135b2204a6a80c974a7587547314b58f69d8214baf1f9d",
	"fig13":     "72bd0968ace7a8d25817b4e3d5dccb239b9624fb7ae8f30bc31b80b8b4e78751",
	"hybrid":    "13d4eddd4bc17ff4140fbf672a21917b3ddcb391c5594791dfe87d44be0b452b",
	"bitvector": "072772340cd507b2db3e3b3e9de0ab29e9f0396ea03d273390a3b5a2fa6c3436",
}

func TestResultDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fourteen experiments at Quick() sizes")
	}
	var exps []Experiment
	for id := range resultDigests {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		exps = append(exps, e)
	}
	o := Quick()
	o.Kernel = "serial"
	for _, r := range RunSuite(exps, o, 2) {
		var buf bytes.Buffer
		r.Table.Render(&buf)
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != resultDigests[r.ID] {
			t.Errorf("%s renders to sha256 %s, committed %s: a simulated result moved\n%s", r.ID, got, resultDigests[r.ID], buf.String())
		}
	}
}
