package repro.recovery

import repro.geo.{Geo, RoadNetwork}
import repro.nn._
import repro.traj.{MatchedPoint, Recovered, SparseFrame, Traj}
import scala.util.Random

/** Configuration of the MTrajRec-family seq2seq recovery baselines.
  *
  * `kind` selects the encoder (the decoders are shared, per the paper's
  * comparison setup which plugs MTrajRec's decoder onto the representation-
  * learning encoders):
  *
  *  - `mtrajrec`:  BiGRU over GPS features (MTrajRec [14])
  *  - `rntrajrec`: transformer over GPS features enriched with the mean
  *                 Node2Vec embedding of the surrounding segments
  *                 (road-subgraph signal of RNTrajRec [10])
  *  - `mmstged`:   transformer with speed features (micro) plus a second
  *                 pass of attention (macro graph) (MM-STGED [19])
  *  - `trajgat`:   structure-only features, POOLED to one vector (TrajGAT+Dec)
  *  - `trajcl`:    dual features (spatial+structural), POOLED (TrajCL+Dec)
  *  - `st2vec`:    spatial+temporal-frequency features, POOLED (ST2Vec+Dec)
  *
  * All of them decode with a GRU whose per-slot candidate pool is the
  * `MaskK` nearest segments to the time-interpolated GPS position — the
  * "constraint mask over the whole network" approach the paper contrasts
  * with TRMMA's route-restricted decoding. Pooled variants condition only on
  * one trajectory vector (no per-point encoder states), which is exactly
  * why they trail the specialised methods.
  */
final case class SeqRecConfig(kind: String) extends Serializable {
  def pooled: Boolean = kind == "trajgat" || kind == "trajcl" || kind == "st2vec"
}

/** Prepared sample: encoder features, per-slot candidate masks and targets. */
final case class SeqRecSample(
    feats: Array[Array[Double]],   // l x featDim encoder inputs
    masks: Array[Array[Int]],      // L x MaskK candidate ids per dense slot
    maskFeat: Array[Array[Double]], // L x (MaskK*4) per-candidate geometry
    times: Array[Double],          // L slot times
    tNorm: Array[Double],          // L normalised slot times
    targetSeg: Array[Int],         // L ground-truth segments (-1 at inference)
    targetR: Array[Double],        // L ground-truth ratios
) extends Serializable

final class SeqRecModel(
    val cfg: SeqRecConfig,
    val net: RoadNetwork,
    val epsilon: Double,
    val segIn: Embedding,    // decoder input embedding (Node2Vec-initialised)
    val segOut: Embedding,   // scoring embedding, read at each slot's MaskK candidates
    val encFc: Linear,
    val encGru: BiGru,                 // used when kind == mtrajrec
    val encTrans: TransformerEncoder,  // used otherwise
    val gru: GruCell,
    val attnProj: Linear,    // decoder->encoder attention query projection
    val clsProj: Linear,     // [h; ctx] -> dh scoring vector
    val geoMlp: Mlp,         // per-candidate geometric score bypass
    val ratioMlp: Mlp,
    val node2vec: Tensor,
) extends Module {

  def params: Seq[Tensor] = {
    val enc = if (cfg.kind == "mtrajrec") encGru.params else encTrans.params
    segIn.params ++ segOut.params ++ encFc.params ++ enc ++ gru.params ++
      attnProj.params ++ clsProj.params ++ geoMlp.params ++ ratioMlp.params
  }

  /** Per-point encoder features, depending on `kind`. */
  private def pointFeats(t: Traj, frame: SparseFrame, i: Int): Array[Double] = {
    val p = t.sparse(i)
    val tn = frame.timeFrac(p.t)
    val (dt, dist) =
      if (i == 0) (0.0, 0.0)
      else {
        val q = t.sparse(i - 1)
        ((p.t - q.t) / frame.tMax, math.hypot(p.x - q.x, p.y - q.y) / 3000.0)
      }
    val base = frame.row(i) ++ Array(dt, dist)
    def n2v = node2vec.rowCopy(net.nearestSegments(p.xy, 1).head)
    cfg.kind match {
      case "mtrajrec" => base
      case "rntrajrec" => base ++ n2v
      case "mmstged" =>
        val speed = if (dt > 0) dist / dt / 10.0 else 0.0
        (base :+ speed) ++ n2v
      case "trajgat" => n2v
      case "trajcl" => base ++ n2v
      case "st2vec" =>
        base ++ Array(math.sin(2 * math.Pi * tn), math.cos(2 * math.Pi * tn),
                      math.sin(4 * math.Pi * tn), math.cos(4 * math.Pi * tn))
      case other => throw new IllegalArgumentException(other)
    }
  }

  def prepare(t: Traj, withLabels: Boolean): SeqRecSample = {
    val frame = new SparseFrame(net, t)
    val feats = Array.tabulate(t.sparse.length)(i => pointFeats(t, frame, i))
    val tl = Recoverer.slotTimeline(t, epsilon)
    val times = tl.times
    val L = tl.length
    // The time-interpolated free-space position of each slot anchors its
    // constraint mask.
    val found = Array.tabulate(L)(j => net.candidates(tl.interpXY(j), SeqRecModel.MaskK))
    val masks = found.map(_.ids)
    // Per-candidate geometry: proximity to the interpolated position (two
    // decay scales), direction alignment with the travel direction, and
    // segment length. Without this the scorer must memorise every segment's
    // geometry into its embedding, which needs orders of magnitude more
    // training data than we generate.
    val maskFeat = Array.tabulate(L) { j =>
      val dir = tl.direction(j); val dirNorm = dir.norm
      val ids = masks(j); val dists = found(j).dists
      val row = new Array[Double](4 * ids.length)
      var k = 0
      while (k < ids.length) {
        val seg = net.segments(ids(k))
        val d = dists(k)
        row(4 * k) = math.exp(-d / 50.0); row(4 * k + 1) = math.exp(-d / 150.0)
        row(4 * k + 2) = Geo.cosine(seg.dir, seg.dirNorm, dir, dirNorm); row(4 * k + 3) = seg.lengthM / net.maxSegLen
        k += 1
      }
      row
    }
    // The timeline starts and ends at the first and last sparse points.
    val tNorm = times.map(frame.timeFrac)
    val (tSeg, tR) =
      if (withLabels) (t.dense.map(_.seg), t.dense.map(_.r))
      else (Array.fill(L)(-1), new Array[Double](L))
    SeqRecSample(feats, masks, maskFeat, times, tNorm, tSeg, tR)
  }

  /** Encoder states (pooled variants collapse to a single row). */
  def encode(s: SeqRecSample)(implicit tp: Tape): Tensor = {
    val x = encFc(Tensor.fromRows(s.feats.toIndexedSeq).markConstant())
    val states = cfg.kind match {
      case "mtrajrec" => encGru(x)
      case _          => encTrans(x)
    }
    if (cfg.pooled) Ops.meanRows(states) else states
  }

  private[recovery] def gruInput(seg: Int, r: Double, tn: Double)(implicit tp: Tape): Tensor = {
    val x = tp.alloc(2)
    x(0) = r; x(1) = tn
    Ops.concatCols(segIn(Array(seg)), new Tensor(1, 2, x).markConstant())
  }

  /** Candidate logits for slot j: embedding score plus geometric bypass. */
  private[recovery] def slotLogits(h: Tensor, enc: Tensor, s: SeqRecSample, j: Int)(implicit tp: Tape): (Tensor, Tensor) = {
    val ctx = DotAttention(attnProj(h), enc) // decoder context over the encoder states
    val q = clsProj(Ops.concatCols(h, ctx)) // 1 x dh
    val mask = s.masks(j)
    val cand = segOut(mask)                 // maskK x dh
    val geo = new Tensor(mask.length, 4, s.maskFeat(j)).markConstant() // no op writes its input
    (Ops.add(Ops.matmul(cand, Ops.transpose(q)), geoMlp(geo)), ctx)
  }

  def loss(s: SeqRecSample)(implicit tp: Tape): Tensor = {
    val enc = encode(s)
    var h = Ops.meanRows(enc)
    var acc: Tensor = null
    var count = 0
    var j = 0
    while (j < s.masks.length) {
      if (j > 0) h = gru(gruInput(s.targetSeg(j - 1), s.targetR(j - 1), s.tNorm(j)), h)
      val targetIdx = s.masks(j).indexOf(s.targetSeg(j))
      if (targetIdx >= 0) {
        count += 1
        val (logits, ctx) = slotLogits(h, enc, s, j)
        val lSeg = Ops.ceRowsSum(Ops.transpose(logits), Array(targetIdx))
        val r = Ops.sigmoid(ratioMlp(Ops.concatCols(h, ctx)))
        val lR = Ops.maeSum(r, Array(s.targetR(j)))
        val l = Ops.add(lSeg, Ops.scale(lR, SeqRecModel.Lambda))
        acc = if (acc == null) l else Ops.add(acc, l)
      }
      j += 1
    }
    if (acc == null) new Tensor(1, 1, Array(0.0)) else Ops.scale(acc, 1.0 / math.max(1, count))
  }

  /** Greedy decoding of every slot. Each slot's ops run on recycled
    * [[Scratch]] arrays; only the hidden state, copied into `h`, and
    * scalars outlive a slot.
    */
  def recover(t: Traj): Recovered = {
    implicit val tp: Scratch = new Scratch
    val s = prepare(t, withLabels = false)
    val enc = encode(s)
    val h = Ops.meanRows(enc)
    val slot = tp.mark
    val out = new Array[MatchedPoint](s.masks.length)
    var prevSeg = s.masks(0)(0)
    var prevR = 0.0
    var j = 0
    while (j < s.masks.length) {
      val hj = if (j > 0) gru(gruInput(prevSeg, prevR, s.tNorm(j)), h) else h
      val (logits, ctx) = slotLogits(hj, enc, s, j)
      val seg = s.masks(j)(logits.argmax(0, logits.size))
      val r = Ops.sigmoid(ratioMlp(Ops.concatCols(hj, ctx))).data(0)
      out(j) = MatchedPoint(seg, math.min(0.999999, r), s.times(j))
      prevSeg = seg; prevR = r
      System.arraycopy(hj.data, 0, h.data, 0, h.size)
      tp.release(slot)
      j += 1
    }
    Recovered(t.id, out)
  }
}

object SeqRecModel {

  private val Dh = 32
  /** Candidate segments per decoded slot. */
  private val MaskK = 40
  private val Heads = 2
  private val DFfn = 128
  private val Lambda = 5.0 // ratio-loss weight

  /** Encoder input width for a Node2Vec table of width `d0`. */
  private def featDim(kind: String, d0: Int): Int = kind match {
    case "mtrajrec" => 5
    case "rntrajrec" => 5 + d0
    case "mmstged" => 6 + d0
    case "trajgat" => d0
    case "trajcl" => 5 + d0
    case "st2vec" => 9
    case other => throw new IllegalArgumentException(other)
  }

  def init(net: RoadNetwork, cfg: SeqRecConfig, epsilon: Double, node2vec: Tensor): SeqRecModel = {
    val rnd = new Random(29L)
    new SeqRecModel(cfg, net, epsilon,
      Embedding.fromPretrained(node2vec),
      Embedding(net.numSegments, Dh, rnd),
      Linear(featDim(cfg.kind, node2vec.cols), Dh, rnd),
      BiGru(Dh, Dh, rnd),
      TransformerEncoder(Dh, Heads, DFfn, if (cfg.kind == "mmstged") 3 else 2, rnd),
      GruCell(node2vec.cols + 2, Dh, rnd),
      Linear(Dh, Dh, rnd),
      Linear(2 * Dh, Dh, rnd),
      Mlp(4, 16, 1, rnd),
      Mlp(2 * Dh, Dh, 1, rnd),
      node2vec)
  }

  def train(model: SeqRecModel, trajs: IndexedSeq[Traj], epochs: Int = 10,
            log: String => Unit = _ => ()): Seq[Double] = {
    val samples = trajs.map(model.prepare(_, withLabels = true))
    Trainer.fit(samples, model.params, new Adam(model.params, lr = 2e-3), epochs, batchSize = 16,
      seed = 31L, label = model.cfg.kind, log = log)((s, tp) => model.loss(s)(tp))
  }
}

/** Recoverer wrapper with the paper's display name. */
final class SeqRec(val model: SeqRecModel, override val name: String) extends Recoverer {
  def recover(t: Traj): Recovered = model.recover(t)
}
