package repro.core

import repro.geo.{RoadNetwork, XY}
import repro.nn._
import repro.recovery.{RouteArc, SlotGaps}
import repro.traj.{MatchedPoint, SparseFrame, Traj}
import scala.util.Random

/** The paper's Table IV ablation flag of TRMMA. Its widths and λ are
  * constants of [[TrmmaModel]] (paper Section V, scaled per DESIGN §3).
  */
final case class TrmmaConfig(
    useDualFormer: Boolean = true, // off => TRMMA-DF (H = R)
) extends Serializable

/** A prepared TRMMA sample: encoder inputs plus the decoder walk over the
  * dense timeline.
  *
  * `routeFeat` carries per-route-position observable geometry (cumulative
  * arc fraction, normalised length) and `slotFeat` per-slot gap anchors
  * (fraction within the gap, bracketing anchors' arc fractions) — scaled-
  * data adaptations (DESIGN §3) that make the interpolation prior cheaply
  * representable so training capacity goes into the learnable structure
  * (per-segment speeds), which is where TRMMA's advantage over linear
  * interpolation comes from.
  */
final case class TrmmaSample(
    coords: Array[Array[Double]],  // l x 4: normalised x, y, t and ratio r
    segs: Array[Int],              // l matched segments of the sparse points
    route: Array[Int],             // route segments (candidate pool)
    routeFeat: Array[Array[Double]], // lR x 3: [cumStartFrac, cumEndFrac, lenNorm]
    denseSeg: Array[Int],          // dense timeline: segment per slot
    denseR: Array[Double],         // dense timeline: ratio per slot
    densePos: Array[Int],          // dense timeline: position of seg in route
    observed: Array[Boolean],      // dense timeline: true at sparse slots
    slotFeat: Array[Array[Double]], // L x 4: [fGap, arcPrevFrac, arcNextFrac, arcLinear]
    slotLo: Array[Int],            // route position of the gap's left anchor
    slotHi: Array[Int],            // route position of the gap's right anchor
) extends Serializable

/** The TRMMA network (paper Fig. 4): DualFormer encoding (Eq. 11-14) and the
  * GRU multitask decoder (Eq. 15-18) with binary classification over the
  * route's segments and position-ratio regression, trained with Eq. 19-21.
  */
final class TrmmaModel(
    val cfg: TrmmaConfig,
    val net: RoadNetwork,
    val segEmbT: Embedding, // id embedding inside T0 and for decoder inputs
    val fcT: Linear,        // W6 (Eq. 11)
    val transT: TransformerEncoder,
    val segEmbR: Embedding, // W7 (Eq. 12)
    val fcR: Linear,        // [segEmbR ; routeFeat] -> dh
    val transR: TransformerEncoder,
    val gru: GruCell,
    val clsMlp: Mlp,        // W8/W9 (Eq. 15), input [H[k]; h; routeFeat[k]; slotFeat]
    val clsGeo: Mlp,        // residual geometric scoring head (DESIGN §3)
    val ratioMlp: Mlp,      // W10/W11 (Eq. 18), input [h; psi H; H[k]; feats]
    val ratioGeo: Mlp,      // residual geometric ratio head
) extends Module {

  def params: Seq[Tensor] =
    segEmbT.params ++ fcT.params ++ transT.params ++ segEmbR.params ++ fcR.params ++
      transR.params ++ gru.params ++ clsMlp.params ++ clsGeo.params ++
      ratioMlp.params ++ ratioGeo.params

  /** Projection ratio of a GPS point onto a segment (Alg. 2 line 4). */
  def projRatio(p: XY, segId: Int): Double = net.projectRatio(p, segId)

  /** Build a sample from observed sparse points with their matched segments
    * (`segs`), a route, and the dense timeline (segments/ratios known only
    * at observed slots for inference; everywhere for training).
    */
  def prepare(t: Traj, segs: Array[Int], route: Array[Int],
              denseSeg: Array[Int], denseR: Array[Double], observed: Array[Boolean]): TrmmaSample = {
    val frame = new SparseFrame(net, t)
    val coords = Array.tabulate(t.sparse.length)(i => frame.row(i) :+ projRatio(t.sparse(i).xy, segs(i)))
    val arc = new RouteArc(net, route)
    val total = math.max(1e-9, arc.totalLen)
    val routeFeat = Array.tabulate(route.length)(k =>
      Array(arc.cum(k) / total, arc.cum(k + 1) / total,
            net.segments(route(k)).lengthM / net.maxSegLen))
    val pos = arc.walk(denseSeg)
    // Per-slot gap anchors from the OBSERVED slots only (inference-safe):
    // fraction within the gap and the bracketing anchors' arc fractions.
    val gaps = new SlotGaps(observed)
    val slotFeat = new Array[Array[Double]](denseSeg.length)
    val slotLo = new Array[Int](denseSeg.length)
    val slotHi = new Array[Int](denseSeg.length)
    var j = 0
    while (j < denseSeg.length) {
      val lo = gaps.lo(j); val hi = gaps.hi(j)
      val f = gaps.gapFrac(j)
      val arcLo = arc.arcOf(pos(lo), denseR(lo)) / total
      val arcHi = arc.arcOf(pos(hi), denseR(hi)) / total
      // arcLinear: where constant-speed interpolation would place this slot.
      slotFeat(j) = Array(f, arcLo, arcHi, arcLo + f * (arcHi - arcLo))
      // `pos` never decreases, so slotHi >= slotLo.
      slotLo(j) = pos(lo)
      slotHi(j) = pos(hi)
      j += 1
    }
    TrmmaSample(coords, segs, route, routeFeat, denseSeg, denseR, pos, observed, slotFeat,
      slotLo, slotHi)
  }

  /** Ground-truth training sample (teacher forcing over `t.dense`). */
  def prepareTrain(t: Traj): TrmmaSample = {
    val observed = Array.fill(t.dense.length)(false)
    t.sparseIdxInDense.foreach(observed(_) = true)
    prepare(t, t.sparseTruthSeg, t.route, t.dense.map(_.seg), t.dense.map(_.r), observed)
  }

  /** DualFormer encoding H (Eq. 11-14). */
  def encode(s: TrmmaSample)(implicit tp: Tape): Tensor = {
    val r1 = fcR(Ops.concatCols(segEmbR(s.route), Tensor.fromRows(s.routeFeat.toIndexedSeq).markConstant()))
    val r = transR(r1)
    if (!cfg.useDualFormer) return r // TRMMA-DF: H = R
    val t0 = Ops.concatCols(Tensor.fromRows(s.coords.toIndexedSeq).markConstant(), segEmbT(s.segs))
    val tEnc = transT(fcT(t0))
    Ops.add(r, DotAttention(r, tEnc)) // Eq. 13-14
  }

  /** Decoder GRU input: previous point (segment id + ratio), the normalised
    * slot time, and the slot's gap-anchor features.
    */
  private[core] def gruInput(seg: Int, r: Double, tNorm: Double, slotFeat: Array[Double])(implicit tp: Tape): Tensor = {
    val x = tp.alloc(6)
    x(0) = r; x(1) = tNorm
    System.arraycopy(slotFeat, 0, x, 2, 4)
    Ops.concatCols(segEmbT(Array(seg)), new Tensor(1, 6, x).markConstant())
  }

  /** Per-(slot, candidate) geometric features, pre-differenced and scaled
    * to segment-width resolution so the interpolation prior is linearly
    * separable (raw [0,1] arc fractions would need segment-width-resolution
    * hinges, which small MLPs cannot learn in few steps):
    * [d1, d2, distMid, lenNorm, fGap, arcLo, arcHi, aLin] where
    * d1 = (aLin - start_k)/len_k and d2 = (end_k - aLin)/len_k. One row
    * per route position `lo..hi`.
    */
  def geoFeats(s: TrmmaSample, j: Int, lo: Int, hi: Int)(implicit tp: Tape): Tensor = {
    val sf = s.slotFeat(j)
    val aLin = sf(3)
    val rows = hi + 1 - lo
    val d = tp.alloc(rows * 8)
    def clip(v: Double) = math.max(-4.0, math.min(4.0, v))
    var k0 = 0
    while (k0 < rows) {
      val rf = s.routeFeat(lo + k0)
      val start = rf(0); val end = rf(1)
      val len = math.max(1e-6, end - start)
      val o = k0 * 8
      d(o) = clip((aLin - start) / len); d(o + 1) = clip((end - aLin) / len)
      d(o + 2) = clip((aLin - (start + end) / 2) / len)
      d(o + 3) = rf(2); d(o + 4) = sf(0); d(o + 5) = sf(1); d(o + 6) = sf(2); d(o + 7) = aLin
      k0 += 1
    }
    new Tensor(rows, 8, d).markConstant()
  }

  /** The decoder heads (Eq. 15 and 18) over the encoding `hEnc` of one
    * trajectory. Each head's first layer is split by input block: the
    * blocks that read H (`H[k]` in `clsMlp`; `ψH` and `H[k]` in `ratioMlp`,
    * with ctx·W = ψ·(H·W)) are applied to all of H here, once; a slot then
    * pays for one `h` block and its window's geometry. All blocks are
    * differentiable ops on the weights, so `loss` and `decode` share them.
    */
  final class Heads(hEnc: Tensor)(implicit tp: Tape) {
    private val dh = hEnc.cols
    private val c1 = clsMlp.l1.w   // rows: [H[k]; h; geo]
    private val r1 = ratioMlp.l1.w // rows: [h; ctx; H[k]; geo[k]]
    private val clsH = Ops.matmul(hEnc, Ops.sliceRows(c1, 0, dh))
    private val clsWh = Ops.sliceRows(c1, dh, 2 * dh)
    private val clsWgeo = Ops.sliceRows(c1, 2 * dh, c1.rows)
    private val ratioWh = Ops.sliceRows(r1, 0, dh)
    private val ratioCtx = Ops.matmul(hEnc, Ops.sliceRows(r1, dh, 2 * dh))
    private val ratioK = Ops.matmul(hEnc, Ops.sliceRows(r1, 2 * dh, 3 * dh))
    private val ratioWgeo = Ops.sliceRows(r1, 3 * dh, r1.rows)

    /** Logits w_{k,j} of route positions `lo..hi` given hidden state h
      * (Eq. 15); `geo` holds the window's [[geoFeats]] rows.
      */
    def classLogits(h: Tensor, lo: Int, hi: Int, geo: Tensor): Tensor = {
      val pre = Ops.addRow(Ops.add(Ops.sliceRows(clsH, lo, hi + 1), Ops.matmul(geo, clsWgeo)),
        Ops.add(Ops.matmul(h, clsWh), clsMlp.l1.b))
      // Residual split: a small head over the geometry alone learns the
      // interpolation prior in a few steps; the full head learns corrections
      // (per-segment speeds etc.) on top.
      Ops.add(clsMlp.l2(Ops.relu(pre)), clsGeo(geo))
    }

    /** Predicted ratio (Eq. 18) from hidden state, the window's logits `w`
      * and the (teacher-forced or argmax) candidate at window row `kPos`.
      */
    def ratioHead(h: Tensor, lo: Int, hi: Int, w: Tensor, kPos: Int, geo: Tensor): Tensor = {
      val psi = Ops.softmaxRows(Ops.transpose(w)) // 1 x |window|
      val ctx = Ops.matmul(psi, Ops.sliceRows(ratioCtx, lo, hi + 1))
      val hk = Ops.sliceRows(ratioK, lo + kPos, lo + kPos + 1)
      val fk = Ops.sliceRows(geo, kPos, kPos + 1)
      val pre = Ops.add(Ops.add(Ops.add(Ops.matmul(h, ratioWh), ctx), hk),
        Ops.add(Ops.matmul(fk, ratioWgeo), ratioMlp.l1.b))
      Ops.sigmoid(Ops.add(ratioMlp.l2(Ops.relu(pre)), ratioGeo(fk)))
    }
  }

  /** Teacher-forced training loss over the dense timeline (Eq. 19-21). */
  def loss(s: TrmmaSample)(implicit tp: Tape): Tensor = {
    val hEnc = encode(s)
    val heads = new Heads(hEnc)
    var h = Ops.meanRows(hEnc)
    var lossAcc: Tensor = null
    var nMissing = 0
    val lastT = math.max(1, s.denseSeg.length - 1).toDouble
    var j = 1
    while (j < s.denseSeg.length) {
      // Advance the hidden state with the previous (true) point.
      h = gru(gruInput(s.denseSeg(j - 1), s.denseR(j - 1), j / lastT, s.slotFeat(j)), h)
      if (!s.observed(j)) {
        nMissing += 1
        // Everything is restricted to the gap's candidate window: segments
        // of the route between the two bracketing observed anchors (the
        // right anchor is as observable as Eq. 17's left one; DESIGN §3).
        // This is also what makes decoding cost |window|, not |route|.
        val lo = s.slotLo(j); val hi = s.slotHi(j)
        val geo = geoFeats(s, j, lo, hi)
        val wWin = heads.classLogits(h, lo, hi, geo)
        val kTrue = math.min(hi, math.max(lo, s.densePos(j))) - lo
        val labels = new Array[Double](hi + 1 - lo)
        labels(kTrue) = 1.0
        val lSeg = Ops.bceLogitsSum(wWin, labels)
        val r = heads.ratioHead(h, lo, hi, wWin, kTrue, geo)
        val lR = Ops.maeSum(r, Array(s.denseR(j)))
        val l = Ops.add(lSeg, Ops.scale(lR, TrmmaModel.Lambda))
        lossAcc = if (lossAcc == null) l else Ops.add(lossAcc, l)
      }
      j += 1
    }
    if (lossAcc == null) new Tensor(1, 1, Array(0.0))
    else Ops.scale(lossAcc, 1.0 / math.max(1, nMissing))
  }

  /** Greedy decoding (Algorithm 2): fill every missing slot with the
    * order-constrained argmax segment (Eq. 17) and the regressed ratio.
    * `denseT` carries the slot timestamps; observed slots keep their
    * matched points. Each slot's ops run on recycled [[Scratch]] arrays;
    * only the hidden state, copied into `h`, and scalars outlive a slot.
    */
  def decode(s: TrmmaSample, denseT: Array[Double]): Array[MatchedPoint] = {
    implicit val tp: Scratch = new Scratch
    val hEnc = encode(s)
    val heads = new Heads(hEnc)
    val h = Ops.meanRows(hEnc)
    val slot = tp.mark
    val L = denseT.length
    val out = new Array[MatchedPoint](L)
    var prevSeg = s.denseSeg(0)
    var prevR = s.denseR(0)
    var prevPos = s.densePos(0)
    out(0) = MatchedPoint(prevSeg, prevR, denseT(0))
    val lastT = math.max(1, L - 1).toDouble
    var j = 1
    while (j < L) {
      val hNext = gru(gruInput(prevSeg, prevR, j / lastT, s.slotFeat(j)), h)
      if (s.observed(j)) {
        prevSeg = s.denseSeg(j); prevR = s.denseR(j)
        out(j) = MatchedPoint(prevSeg, prevR, denseT(j))
      } else {
        val lo = s.slotLo(j); val hi = s.slotHi(j)
        val geo = geoFeats(s, j, lo, hi)
        val w = heads.classLogits(hNext, lo, hi, geo)
        // Order constraint (Eq. 17) extended with the gap's right anchor:
        // candidates from max(prev position, left anchor) to right anchor.
        // A position decoded in an earlier gap is at most the left anchor.
        val best = lo + w.argmax(math.max(prevPos, lo) - lo, hi + 1 - lo)
        val r = heads.ratioHead(hNext, lo, hi, w, best - lo, geo).data(0)
        prevSeg = s.route(best); prevR = math.min(0.999999, r); prevPos = best
        out(j) = MatchedPoint(prevSeg, prevR, denseT(j))
      }
      System.arraycopy(hNext.data, 0, h.data, 0, h.size)
      tp.release(slot)
      j += 1
    }
    out
  }
}

object TrmmaModel {

  private val Dh = 32      // transformer model dim (paper 64)
  private val Heads = 2    // paper 4
  private val Layers = 2   // DualFormer layers (paper 4)
  private val DFfn = 128   // paper 512
  /** Ratio-loss weight λ (Eq. 21). */
  val Lambda = 5.0

  /** TRMMA over a Node2Vec table, whose width is d0, the segment id
    * embedding inside T0 (32 in the harness, paper 64).
    */
  def init(net: RoadNetwork, cfg: TrmmaConfig, node2vec: Tensor): TrmmaModel = {
    val rnd = new Random(19L)
    require(node2vec.rows == net.numSegments)
    val d0 = node2vec.cols
    new TrmmaModel(cfg, net,
      Embedding.fromPretrained(node2vec),
      Linear(4 + d0, Dh, rnd),
      TransformerEncoder(Dh, Heads, DFfn, Layers, rnd),
      Embedding(net.numSegments, Dh, rnd),
      Linear(Dh + 3, Dh, rnd),
      TransformerEncoder(Dh, Heads, DFfn, Layers, rnd),
      GruCell(d0 + 6, Dh, rnd),
      Mlp(2 * Dh + 8, 64, 1, rnd),
      Mlp(8, 32, 1, rnd),
      Mlp(3 * Dh + 8, 64, 1, rnd),
      Mlp(8, 32, 1, rnd))
  }

  def train(model: TrmmaModel, trajs: IndexedSeq[Traj], epochs: Int = 10,
            log: String => Unit = _ => ()): Seq[Double] = {
    val samples = trajs.map(model.prepareTrain)
    Trainer.fit(samples, model.params, new Adam(model.params, lr = 2e-3, clipNorm = 50.0), epochs,
      batchSize = 16, seed = 23L, label = "TRMMA", log = log)((s, tp) => model.loss(s)(tp))
  }
}
