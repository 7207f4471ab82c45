package nttcp

import (
	"testing"
	"time"
)

// FuzzResponder feeds the responder arbitrary datagram sequences from four
// peers, two of which share an address, and holds it to a model of its
// burst table: it must not panic on short or malformed input; a msgResult
// counts no more msgData than arrived for that (peer, testID) since its
// msgStart; and no entry is left for a key once its msgDataEnd is handled.
//
// The input is a script of steps. An op byte's bits 0-1 pick the peer. With
// bit 2 clear, a length byte and that many bytes follow: the raw datagram.
// With bit 2 set, three bytes follow — type, test ID and extra — and the
// step sends a well-formed header built from them, which keeps the state
// machine within reach of the fuzzer's mutations.
func FuzzResponder(f *testing.F) {
	peers := [4]simPeer{{"a", 1}, {"a", 2}, {"b", 1}, {"c", 7}}
	f.Fuzz(func(t *testing.T, script []byte) {
		var r responder[simPeer]
		open := make(map[burstKey[simPeer]]int) // data seen since msgStart
		for i, step := 0, 0; i < len(script); step++ {
			op := script[i]
			i++
			var payload []byte
			if op&0x04 != 0 {
				if len(script)-i < 3 {
					return
				}
				payload = header{typ: script[i], testID: uint32(script[i+1]), extra: uint64(script[i+2])}.put(nil)
				i += 3
			} else {
				if i == len(script) {
					return
				}
				n := min(int(script[i]), len(script)-i-1)
				payload = script[i+1 : i+1+n]
				i += 1 + n
			}
			from := peers[op&3]
			reply, done, ok := r.handle(from, payload, len(payload), time.Duration(step)*time.Millisecond)
			h, valid := decodeHeader(payload)
			if !valid {
				if ok || done {
					t.Fatalf("step %d: a %d-byte datagram got a reply (%+v, done %v)", step, len(payload), reply, done)
				}
				continue
			}
			key := burstKey[simPeer]{from, h.testID}
			switch h.typ {
			case msgStart:
				open[key] = 0
			case msgData:
				if _, ok := open[key]; ok {
					open[key]++
				}
			case msgDataEnd:
				seen, wasOpen := open[key]
				delete(open, key)
				if _, left := r.bursts[key]; left {
					t.Fatalf("step %d: %+v still has a burst entry after its msgDataEnd", step, key)
				}
				if done != wasOpen || ok != wasOpen {
					t.Fatalf("step %d: msgDataEnd for %+v: open %v, reply ok %v, done %v", step, key, wasOpen, ok, done)
				}
				if ok && (reply.typ != msgResult || int(reply.seq) > seen) {
					t.Fatalf("step %d: %+v: result %+v counts more than the %d msgData seen", step, key, reply, seen)
				}
			}
			if done && h.typ != msgDataEnd {
				t.Fatalf("step %d: a type %d message completed a burst", step, h.typ)
			}
			if len(r.bursts) != len(open) {
				t.Fatalf("step %d: %d burst entries, the model has %d", step, len(r.bursts), len(open))
			}
		}
	})
}
