package repro.core

import repro.geo.RoadNetwork
import repro.mm.Lattice
import repro.nn._
import repro.traj.{SparseFrame, Traj}
import scala.util.Random

/** The paper's Table IV ablation flags of MMA. Its widths and k_c are
  * constants of [[MmaModel]] (paper Section IV-B, scaled per DESIGN §3).
  */
final case class MmaConfig(
    useContext: Boolean = true,      // off => TRMMA-C variant of MMA
    useDirectional: Boolean = true,  // off => TRMMA-DI variant of MMA
) extends Serializable {
  def kc: Int = MmaModel.Kc
}

/** A prepared MMA training/inference sample: per-point candidate sets,
  * directional features and normalised inputs, computed once per trajectory
  * (the R-tree queries and geometry do not change across epochs).
  */
final case class MmaSample(
    norm: Array[Array[Double]],       // l x 3 normalised (x, y, t)
    cands: Array[Array[Int]],         // l x <=kc candidate segment ids
    feats: Array[Array[Double]],      // l x (kc*4) directional cosines
    labels: Array[Array[Double]],     // l x kc class labels (may be all zero)
) extends Serializable

/** The MMA network (paper Fig. 3): candidate-segment embedding (Eq. 1-2),
  * transformer point encoding (Eq. 3), candidate-context attention (Eq. 7-8)
  * and sigmoid inner-product scoring (Eq. 9) trained with BCE (Eq. 10).
  */
final class MmaModel(
    val cfg: MmaConfig,
    val net: RoadNetwork,
    val segEmb: Embedding,    // W^C, the Node2Vec table of Eq. 1, frozen
    val candMlp: Mlp,         // Eq. 2
    val pointFc: Linear,      // z0 -> z1
    val encoder: TransformerEncoder, // Eq. 3
    val attnMlp: Mlp,         // Eq. 7
) extends Module {

  // At reduced data scale the n x d0 segment table (~3 positive examples
  // per segment) overfits badly; leaving it out of the trained parameters
  // keeps Eq. 1's Node2Vec initialisation as fixed features (DESIGN §3),
  // so the table is a constant and training computes no gradient for it.
  segEmb.table.markConstant()
  def params: Seq[Tensor] =
    candMlp.params ++ pointFc.params ++ encoder.params ++ attnMlp.params

  // ---- sample preparation (geometry only, no learnable state) ----

  /** Point-sequence input rows: the sparse-point frame's normalised
    * (x, y, t) plus the displacements to the previous/next GPS points (the
    * raw sequence signal the transformer of Eq. 3 consumes).
    */
  def normalise(t: Traj): Array[Array[Double]] = {
    val frame = new SparseFrame(net, t)
    t.sparse.indices.map { i =>
      val p = t.sparse(i)
      val (dxp, dyp) = if (i == 0) (0.0, 0.0)
        else ((p.x - t.sparse(i - 1).x) / 500.0, (p.y - t.sparse(i - 1).y) / 500.0)
      val (dxn, dyn) = if (i + 1 == t.sparse.length) (0.0, 0.0)
        else ((t.sparse(i + 1).x - p.x) / 500.0, (t.sparse(i + 1).y - p.y) / 500.0)
      frame.row(i) ++ Array(dxp, dyp, dxn, dyn)
    }.toArray
  }

  /** Relationship features of candidate `sid` at distance `dist` from point
    * i (Section IV-B): the four directional cosines plus exponentially
    * decayed perpendicular-distance features (part of the candidate's
    * "relationship with p_i"; minor extension documented in DESIGN §3). The
    * cosines are zeroed when `useDirectional` is off (TRMMA-DI).
    */
  private def dirFeats(t: Traj, i: Int, sid: Int, dist: Double, dMin: Double): Array[Double] = {
    // Absolute proximity at two scales plus rank-relative proximity — the
    // relative term stays discriminative on heavy-tailed outlier points
    // where every absolute distance is large.
    val prox = Array(math.exp(-dist / 25.0), math.exp(-dist / 75.0),
      math.exp(-(dist - dMin) / 15.0))
    if (!cfg.useDirectional) return Array(0.0, 0.0, 0.0, 0.0) ++ prox
    t.dirCosines(i, net.segments(sid)) ++ prox
  }

  def prepare(t: Traj, withLabels: Boolean): MmaSample = {
    val l = t.sparse.length
    val pts = t.sparse.map(_.xy)
    // Transition-plausibility features (road-network context, Section IV-B):
    // how consistent each candidate is with the nearest candidates of the
    // neighbouring points, measured as |network travel distance - straight
    // line| on the candidate lattice an HMM's Viterbi reads, here consumed as
    // a learned per-candidate feature; a travel distance past the lattice's
    // bound scores near zero at both decay scales below.
    val maxGap = (1 until l).map(i => pts(i).dist(pts(i - 1))).foldLeft(500.0)(math.max)
    val lat = new Lattice(net, t, cfg.kc, maxGap * 2.5 + 1500)
    // Candidates come back nearest first, so dists(i)(0) is the least.
    val (cands, dists) = (lat.ids, lat.dists)
    // Emission weight of every candidate of every point.
    val wEmit = dists.map(_.map(dEmit => math.exp(-dEmit * dEmit / (2 * 10.0 * 10.0)) + 1e-6))
    // Plausibility of candidate j of point i vs neighbour point iNb:
    // expected transition consistency over the neighbour's candidates,
    // weighted by their emission proximity (a soft one-step Viterbi
    // message), at two decay scales.
    def plaus(iNb: Int, i: Int, j: Int, forward: Boolean): (Double, Double) = {
      val gc = pts(iNb).dist(pts(i))
      var wSum = 0.0; var f60 = 0.0; var f200 = 0.0
      var k = 0
      while (k < cands(iNb).length) {
        val wNb = wEmit(iNb)(k)
        val d = if (forward) lat.travel(iNb, k, j) else lat.travel(i, j, k)
        val diff = math.abs(d - gc)
        wSum += wNb
        // Gap-adaptive decay scales: a 100 m detour matters on a 500 m gap
        // but is noise on a 4 km one (BJ's 600 s gaps).
        f60 += wNb * math.exp(-diff / (30.0 + 0.05 * gc))
        f200 += wNb * math.exp(-diff / (100.0 + 0.2 * gc))
        k += 1
      }
      (f60 / wSum, f200 / wSum)
    }
    val feats = Array.tabulate(l) { i =>
      cands(i).indices.toArray.flatMap { j =>
        val (fPrev60, fPrev200) = if (i == 0) (1.0, 1.0) else plaus(i - 1, i, j, forward = true)
        val (fNext60, fNext200) = if (i + 1 == l) (1.0, 1.0) else plaus(i + 1, i, j, forward = false)
        dirFeats(t, i, cands(i)(j), dists(i)(j), dists(i)(0)) ++ Array(fPrev60, fPrev200, fNext60, fNext200)
      }
    }
    val labels =
      if (withLabels)
        Array.tabulate(l)(i => cands(i).map(sid => if (sid == t.sparseTruthSeg(i)) 1.0 else 0.0))
      else Array.tabulate(l)(i => new Array[Double](cands(i).length))
    MmaSample(normalise(t), cands, feats, labels)
  }

  // ---- forward ----

  /** Sequence embeddings Z2 (Eq. 3) for all points of the trajectory. */
  def encodePoints(s: MmaSample)(implicit tp: Tape): Tensor =
    encoder(pointFc(Tensor.fromRows(s.norm.toIndexedSeq).markConstant()))

  /** Candidate embeddings c_j (Eq. 1-2) for point i: (kc x d2). */
  def candEmbed(s: MmaSample, i: Int)(implicit tp: Tape): Tensor = {
    val e = segEmb(s.cands(i))
    val k = s.cands(i).length
    val f = new Tensor(k, MmaModel.NumFeats, s.feats(i)).markConstant() // no op writes its input
    candMlp(Ops.concatCols(e, f))
  }

  /** Candidate scoring (Eq. 7-9) for the points `z2` of one trajectory.
    * attnMlp's first layer is split by input block [z2i; c_j]: the point
    * block is applied to all points in one matmul, and each point's row is
    * broadcast over its candidates instead of being tiled into the input.
    */
  final class Scorer(z2: Tensor)(implicit tp: Tape) {
    private val w1 = attnMlp.l1.w
    private lazy val zw = Ops.addRow(Ops.matmul(z2, Ops.sliceRows(w1, 0, z2.cols)), attnMlp.l1.b)
    private lazy val wc = Ops.sliceRows(w1, z2.cols, w1.rows)

    /** Per-candidate logits (before sigmoid) of point i with candidate
      * embeddings `c`.
      */
    def logits(i: Int, c: Tensor): Tensor = {
      val z2i = Ops.sliceRows(z2, i, i + 1)
      val p =
        if (cfg.useContext) {
          val pre = Ops.addRow(Ops.matmul(c, wc), Ops.sliceRows(zw, i, i + 1))
          val scores = attnMlp.l2(Ops.relu(pre)) // kc x 1
          val alpha = Ops.softmaxRows(Ops.transpose(scores)) // 1 x kc
          Ops.add(z2i, Ops.matmul(alpha, c)) // Eq. 8
        } else z2i
      Ops.matmul(c, Ops.transpose(p)) // kc x 1 inner products
    }
  }

  /** Per-candidate logits (before sigmoid) for one point (Eq. 7-9); equal,
    * bit for bit, to its row's [[Scorer]] logits.
    */
  def logitsFor(z2i: Tensor, c: Tensor)(implicit tp: Tape): Tensor = new Scorer(z2i).logits(0, c)

  /** Training loss of one prepared trajectory (Eq. 10, mean over points). */
  def loss(s: MmaSample)(implicit tp: Tape): Tensor = {
    val scorer = new Scorer(encodePoints(s))
    val perPoint = s.cands.indices.map { i =>
      Ops.bceLogitsSum(scorer.logits(i, candEmbed(s, i)), s.labels(i))
    }
    Ops.scale(perPoint.reduceLeft(Ops.add(_, _)), 1.0 / s.cands.length)
  }

  /** Map every sparse point of `t` to its argmax candidate (Alg. 1 l.1-9). */
  def predictSegments(t: Traj): Array[Int] = {
    implicit val tp: Tape = NoTape
    val s = prepare(t, withLabels = false)
    val scorer = new Scorer(encodePoints(s))
    s.cands.indices.map { i =>
      val logits = scorer.logits(i, candEmbed(s, i))
      s.cands(i)(logits.argmax(0, logits.size))
    }.toArray
  }
}

object MmaModel {

  /** Per-candidate relationship features: 4 cosines + 3 proximity terms +
    * 4 transition-plausibility terms (prev/next at two scales).
    */
  val NumFeats = 11

  /** Candidate segments per GPS point, k_c (paper Section IV-B). */
  val Kc = 10
  private val D1 = 64  // candidate MLP hidden (paper 128)
  private val D2 = 32  // point/candidate embedding dim (paper 64)
  private val D3 = 64  // attention MLP hidden (paper 256)
  private val Heads = 2
  private val Layers = 2
  private val DFfn = 128

  /** MMA over a Node2Vec table, whose width is the segment embedding's d0
    * (32 in the harness, paper 64).
    */
  def init(net: RoadNetwork, cfg: MmaConfig, node2vec: Tensor): MmaModel = {
    val rnd = new Random(13L)
    require(node2vec.rows == net.numSegments)
    new MmaModel(cfg, net,
      Embedding.fromPretrained(node2vec),
      Mlp(node2vec.cols + NumFeats, D1, D2, rnd),
      Linear(7, D2, rnd),
      TransformerEncoder(D2, Heads, DFfn, Layers, rnd),
      Mlp(2 * D2, D3, 1, rnd))
  }

  /** Train on prepared samples with Adam; returns per-epoch mean losses. */
  def train(model: MmaModel, trajs: IndexedSeq[Traj], epochs: Int = 3,
            log: String => Unit = _ => ()): Seq[Double] = {
    val samples = trajs.map(model.prepare(_, withLabels = true))
    Trainer.fit(samples, model.params, new Adam(model.params, lr = 1e-3), epochs, batchSize = 32,
      seed = 17L, label = "MMA", log = log)((s, tp) => model.loss(s)(tp))
  }
}
