package repro.recovery

import repro.geo.{Geo, XY}
import repro.nn.{NoTape, Ops, Tape}
import repro.traj.{MatchedPoint, Recovered, Traj}

/** MTrajRec's decode loop as it ran on `NoTape`, with a fresh array for
  * every op, and its per-slot mask features as they were built from one
  * small array per candidate, each slot's bracketing points found by its own
  * scan. Kept as the reference for
  * `SeqRecModel.recover` on recycled `Scratch` arrays and for
  * `SeqRecModel.prepare`, which must equal these bit for bit.
  */
object ReferenceSeqRec {

  def recover(m: SeqRecModel, t: Traj): Recovered = {
    implicit val tp: Tape = NoTape
    val s = m.prepare(t, withLabels = false)
    val enc = m.encode(s)
    var h = Ops.meanRows(enc)
    val out = new Array[MatchedPoint](s.masks.length)
    var prevSeg = s.masks(0)(0)
    var prevR = 0.0
    var j = 0
    while (j < s.masks.length) {
      if (j > 0) h = m.gru(m.gruInput(prevSeg, prevR, s.tNorm(j)), h)
      val (logits, ctx) = m.slotLogits(h, enc, s, j)
      val seg = s.masks(j)(logits.argmax(0, logits.size))
      val r = Ops.sigmoid(m.ratioMlp(Ops.concatCols(h, ctx))).data(0)
      out(j) = MatchedPoint(seg, math.min(0.999999, r), s.times(j))
      prevSeg = seg; prevR = r
      j += 1
    }
    Recovered(t.id, out)
  }

  def maskFeat(m: SeqRecModel, t: Traj, s: SeqRecSample): Array[Array[Double]] = {
    val net = m.net
    val maxLen = net.segments.map(_.lengthM).max
    Array.tabulate(s.times.length) { j =>
      // The last point before the slot's time (the first if none) and its
      // successor bracket the slot.
      val tt = s.times(j)
      var i = 0
      while (i + 1 < t.sparse.length && t.sparse(i + 1).t < tt) i += 1
      val a = t.sparse(i); val b = t.sparse(math.min(i + 1, t.sparse.length - 1))
      val f = if (b.t - a.t < 1e-9) 0.0 else (tt - a.t) / (b.t - a.t)
      val found = net.candidates(XY(a.x + (b.x - a.x) * f, a.y + (b.y - a.y) * f), s.masks(j).length)
      val dir = b.xy - a.xy
      found.ids.indices.toArray.flatMap { k =>
        val seg = net.segments(found.ids(k))
        val d = found.dists(k)
        Array(math.exp(-d / 50.0), math.exp(-d / 150.0),
          Geo.cosine(seg.dir, seg.dir.norm, dir, dir.norm), seg.lengthM / maxLen)
      }
    }
  }
}
