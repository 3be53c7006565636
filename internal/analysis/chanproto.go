package analysis

import (
	"go/ast"
	"go/types"
)

// ChanProto checks three channel-lifecycle rules on every channel in
// the module, using the module-wide operation index (channels are keyed
// by field, package variable, or local — a field key covers every
// instance, deliberately coarse):
//
//   - Double close: a channel closed at more than one site panics on the
//     second close. Close exactly once, from the single owner.
//   - Send racing close: a send in one function and a close in another
//     can interleave as send-on-closed (panic) unless both critical
//     sections hold a common mutex — the accept-gate shape: the sender
//     sends under mu.RLock after checking a closed flag, the closer
//     flips the flag and closes under mu.Lock. Same-function send+close
//     is sequential and legal.
//   - Missing drain: a channel that is both sent on and closed must be
//     received somewhere with the comma-ok or range form, so the
//     consumer drains buffered requests after close instead of reading
//     zero values or blocking forever.
var ChanProto = &Analyzer{
	Name: "chanproto",
	Doc: "flags double close, sends that can race a close in another " +
		"function without a shared mutex, and closed+sent channels with " +
		"no comma-ok/range drain receive",
	Run: runChanProto,
}

func runChanProto(pass *Pass) {
	idx := pass.Facts().Index()
	for _, key := range idx.sortedKeys(idx.byKey) {
		sites := idx.byKey[key]
		var closes, sends []opSite
		drains := 0
		for _, site := range sites {
			switch site.kind {
			case opClose:
				closes = append(closes, site)
			case opSend:
				sends = append(sends, site)
			case opRecvOk, opRecvRange:
				drains++
			}
		}
		if len(closes) == 0 {
			continue
		}
		name := key.Name()
		if len(closes) > 1 {
			for _, c := range closes {
				if c.pkg != pass.Pkg {
					continue
				}
				pass.Reportf(c.pos,
					"channel %q is closed at %d sites (e.g. also in %s); the second close panics — close exactly once from one owner",
					name, len(closes), otherCloseFunc(closes, c))
			}
		}
		for _, send := range sends {
			if send.pkg != pass.Pkg {
				continue
			}
			for _, c := range closes {
				if c.fn == send.fn {
					continue // sequential in one function
				}
				if idx.commonLock(send.fn, c.fn) {
					continue // mutually ordered by a shared mutex
				}
				pass.Reportf(send.pos,
					"send on %q can race its close in %s (send on closed channel panics); guard both with a shared mutex and a closed flag, or close after all sends",
					name, declName(c.fn))
				break
			}
		}
		// The drain rule applies to fields and package variables — the
		// shutdown-protocol shape. A local producer channel (make, send,
		// close, return) is consumed through the caller's own variable,
		// which this index keys separately.
		if len(sends) > 0 && drains == 0 && isChanField(key) {
			for _, c := range closes {
				if c.pkg != pass.Pkg {
					continue
				}
				pass.Reportf(c.pos,
					"channel %q is closed while senders exist but no receive uses the comma-ok or range form; the consumer cannot drain after close — receive with v, ok := <-ch (DESIGN §7)",
					name)
			}
		}
	}
}

// isChanField reports whether key is a struct field or package-level
// variable.
func isChanField(key types.Object) bool {
	v, ok := key.(*types.Var)
	return ok && (v.IsField() || isPkgLevel(v))
}

// otherCloseFunc names a close site other than cur, for the message.
func otherCloseFunc(closes []opSite, cur opSite) string {
	for _, c := range closes {
		if c.pos != cur.pos {
			return declName(c.fn)
		}
	}
	return declName(cur.fn)
}

func declName(fd *ast.FuncDecl) string {
	if fd == nil {
		return "package scope"
	}
	return fd.Name.Name
}
