package repro.core

import repro.nn.{NoTape, Ops, Tape, Tensor}
import repro.recovery.RouteArc
import repro.traj.MatchedPoint

/** The decoder and attention heads as they were written with concatenated
  * inputs, kept as the reference for the block-split heads of
  * `TrmmaModel.Heads` and `MmaModel.logitsFor`, and TRMMA's decode loop as
  * it ran on `NoTape` (`splitDecode`), which scans the route for each
  * observed segment where `decode` reads `densePos`. TRMMA's slot tiles `h` over
  * its window and pushes `[H[k]; h; geo]` through `clsMlp`; MMA tiles `z2i`
  * over the candidates. The loss, decode and prediction loops around them
  * are copied unchanged so whole trajectories can be compared.
  */
object ReferenceHeads {

  def classLogits(m: TrmmaModel, h: Tensor, hEnc: Tensor, geo: Tensor)(implicit tp: Tape): Tensor = {
    val full = Ops.concatCols(Ops.concatCols(hEnc, Ops.tileRows(h, hEnc.rows)), geo)
    Ops.add(m.clsMlp(full), m.clsGeo(geo))
  }

  def ratioHead(m: TrmmaModel, h: Tensor, hEnc: Tensor, w: Tensor, kPos: Int, geo: Tensor)(
      implicit tp: Tape): Tensor = {
    val psi = Ops.softmaxRows(Ops.transpose(w)) // 1 x lR
    val ctx = Ops.matmul(psi, hEnc)
    val hk = Ops.sliceRows(hEnc, kPos, kPos + 1)
    val fk = Ops.sliceRows(geo, kPos, kPos + 1)
    val full = m.ratioMlp(Ops.concatCols(Ops.concatCols(Ops.concatCols(h, ctx), hk), fk))
    Ops.sigmoid(Ops.add(full, m.ratioGeo(fk)))
  }

  def trmmaLoss(m: TrmmaModel, s: TrmmaSample)(implicit tp: Tape): Tensor = {
    val hEnc = m.encode(s)
    var h = Ops.meanRows(hEnc)
    var lossAcc: Tensor = null
    var nMissing = 0
    val lastT = math.max(1, s.denseSeg.length - 1).toDouble
    var j = 1
    while (j < s.denseSeg.length) {
      h = m.gru(m.gruInput(s.denseSeg(j - 1), s.denseR(j - 1), j / lastT, s.slotFeat(j)), h)
      if (!s.observed(j)) {
        nMissing += 1
        val lo = s.slotLo(j); val hi = s.slotHi(j)
        val hWin = Ops.sliceRows(hEnc, lo, hi + 1)
        val geo = m.geoFeats(s, j, lo, hi)
        val wWin = classLogits(m, h, hWin, geo)
        val labels = new Array[Double](hi + 1 - lo)
        labels(math.min(hi, math.max(lo, s.densePos(j))) - lo) = 1.0
        val lSeg = Ops.bceLogitsSum(wWin, labels)
        val r = ratioHead(m, h, hWin, wWin, math.min(hi, math.max(lo, s.densePos(j))) - lo, geo)
        val lR = Ops.maeSum(r, Array(s.denseR(j)))
        val l = Ops.add(lSeg, Ops.scale(lR, TrmmaModel.Lambda))
        lossAcc = if (lossAcc == null) l else Ops.add(lossAcc, l)
      }
      j += 1
    }
    if (lossAcc == null) new Tensor(1, 1, Array(0.0))
    else Ops.scale(lossAcc, 1.0 / math.max(1, nMissing))
  }

  def decode(m: TrmmaModel, s: TrmmaSample, denseT: Array[Double]): Array[MatchedPoint] = {
    implicit val tp: Tape = NoTape
    val hEnc = m.encode(s)
    var h = Ops.meanRows(hEnc)
    val L = denseT.length
    val out = new Array[MatchedPoint](L)
    var prevSeg = s.denseSeg(0)
    var prevR = s.denseR(0)
    var prevPos = s.densePos(0)
    out(0) = MatchedPoint(prevSeg, prevR, denseT(0))
    val lastT = math.max(1, L - 1).toDouble
    var j = 1
    while (j < L) {
      h = m.gru(m.gruInput(prevSeg, prevR, j / lastT, s.slotFeat(j)), h)
      if (s.observed(j)) {
        prevSeg = s.denseSeg(j); prevR = s.denseR(j)
        val p = RouteArc.posOf(s.route, prevSeg, prevPos)
        if (p >= 0) prevPos = p
        out(j) = MatchedPoint(prevSeg, prevR, denseT(j))
      } else {
        val lo = s.slotLo(j); val hi = math.max(s.slotLo(j), s.slotHi(j))
        val hWin = Ops.sliceRows(hEnc, lo, hi + 1)
        val geo = m.geoFeats(s, j, lo, hi)
        val w = classLogits(m, h, hWin, geo)
        val kFrom = math.max(prevPos, lo)
        var best = kFrom
        var bv = Double.NegativeInfinity
        var k = kFrom
        while (k <= hi) {
          if (w(k - lo, 0) > bv) { bv = w(k - lo, 0); best = k }
          k += 1
        }
        val r = ratioHead(m, h, hWin, w, best - lo, geo).data(0)
        prevSeg = s.route(best); prevR = math.min(0.999999, r); prevPos = best
        out(j) = MatchedPoint(prevSeg, prevR, denseT(j))
      }
      j += 1
    }
    out
  }

  /** `TrmmaModel.decode` as it was written on `NoTape`, with the block-split
    * heads and a fresh array for every op: the reference for the decode
    * loop on recycled `Scratch` arrays, which must equal it bit for bit.
    */
  def splitDecode(m: TrmmaModel, s: TrmmaSample, denseT: Array[Double]): Array[MatchedPoint] = {
    implicit val tp: Tape = NoTape
    val hEnc = m.encode(s)
    val heads = new m.Heads(hEnc)
    var h = Ops.meanRows(hEnc)
    val L = denseT.length
    val out = new Array[MatchedPoint](L)
    var prevSeg = s.denseSeg(0)
    var prevR = s.denseR(0)
    var prevPos = s.densePos(0)
    out(0) = MatchedPoint(prevSeg, prevR, denseT(0))
    val lastT = math.max(1, L - 1).toDouble
    var j = 1
    while (j < L) {
      h = m.gru(m.gruInput(prevSeg, prevR, j / lastT, s.slotFeat(j)), h)
      if (s.observed(j)) {
        prevSeg = s.denseSeg(j); prevR = s.denseR(j)
        val p = RouteArc.posOf(s.route, prevSeg, prevPos)
        if (p >= 0) prevPos = p
        out(j) = MatchedPoint(prevSeg, prevR, denseT(j))
      } else {
        val lo = s.slotLo(j); val hi = math.max(s.slotLo(j), s.slotHi(j))
        val geo = m.geoFeats(s, j, lo, hi)
        val w = heads.classLogits(h, lo, hi, geo)
        val best = lo + w.argmax(math.max(prevPos, lo) - lo, hi + 1 - lo)
        val r = heads.ratioHead(h, lo, hi, w, best - lo, geo).data(0)
        prevSeg = s.route(best); prevR = math.min(0.999999, r); prevPos = best
        out(j) = MatchedPoint(prevSeg, prevR, denseT(j))
      }
      j += 1
    }
    out
  }

  def mmaLogits(m: MmaModel, z2i: Tensor, c: Tensor)(implicit tp: Tape): Tensor = {
    val p =
      if (m.cfg.useContext) {
        val zTiled = Ops.tileRows(z2i, c.rows)
        val scores = m.attnMlp(Ops.concatCols(zTiled, c)) // kc x 1
        val alpha = Ops.softmaxRows(Ops.transpose(scores)) // 1 x kc
        Ops.add(z2i, Ops.matmul(alpha, c)) // Eq. 8
      } else z2i
    Ops.matmul(c, Ops.transpose(p)) // kc x 1 inner products
  }

  def mmaLoss(m: MmaModel, s: MmaSample)(implicit tp: Tape): Tensor = {
    val z2 = m.encodePoints(s)
    val perPoint = s.cands.indices.map { i =>
      val c = m.candEmbed(s, i)
      val logits = mmaLogits(m, Ops.sliceRows(z2, i, i + 1), c)
      Ops.bceLogitsSum(logits, s.labels(i))
    }
    Ops.scale(perPoint.reduceLeft(Ops.add(_, _)), 1.0 / s.cands.length)
  }

  def predictSegments(m: MmaModel, s: MmaSample): Array[Int] = {
    implicit val tp: Tape = NoTape
    val z2 = m.encodePoints(s)
    s.cands.indices.map { i =>
      val c = m.candEmbed(s, i)
      val logits = mmaLogits(m, Ops.sliceRows(z2, i, i + 1), c)
      var best = 0
      var bv = Double.NegativeInfinity
      var j = 0
      while (j < logits.rows) { if (logits(j, 0) > bv) { bv = logits(j, 0); best = j }; j += 1 }
      s.cands(i)(best)
    }.toArray
  }
}
