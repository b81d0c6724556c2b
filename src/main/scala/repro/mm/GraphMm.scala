package repro.mm

import repro.core.MmaModel
import repro.geo.{RoadNetwork, RoutePlanner, XY}
import repro.nn._
import repro.traj.Traj
import scala.util.Random

/** GraphMM (paper ref [13]): graph-centric map matching that leverages road
  * and trajectory graph topology. Candidates are scored from their Node2Vec
  * graph embeddings plus the (graph-aggregated) embeddings of the previous
  * and next points' nearest segments — capturing road/trajectory topology
  * correlation — with a proximity feature. Deliberately WITHOUT MMA's
  * sequence transformer and directional cosines, per its design. Its
  * candidates are the same top-k_c as MMA's.
  */
final class GraphMmModel(
    val net: RoadNetwork,
    val node2vec: Tensor,
    val scorer: Mlp, // [cand n2v ; prev ctx n2v ; next ctx n2v ; prox] -> 1
) extends Module {

  def params: Seq[Tensor] = scorer.params
  private val d0 = node2vec.cols

  /** Mean Node2Vec embedding of the top-3 nearest segments of a point. */
  private def ctxEmb(p: XY): Array[Double] = {
    val ids = net.nearestSegments(p, 3)
    val acc = new Array[Double](d0)
    ids.foreach { sid => var j = 0; while (j < d0) { acc(j) += node2vec(sid, j) / ids.length; j += 1 } }
    acc
  }

  def candFeatures(t: Traj, i: Int): (Array[Int], Array[Array[Double]]) = {
    val c = net.candidates(t.sparse(i).xy, MmaModel.Kc)
    val prevCtx = if (i > 0) ctxEmb(t.sparse(i - 1).xy) else new Array[Double](d0)
    val nextCtx = if (i + 1 < t.sparse.length) ctxEmb(t.sparse(i + 1).xy) else new Array[Double](d0)
    val rows = Array.tabulate(c.ids.length) { j =>
      node2vec.rowCopy(c.ids(j)) ++ prevCtx ++ nextCtx :+ math.exp(-c.dists(j) / 25.0)
    }
    (c.ids, rows)
  }

  def loss(t: Traj)(implicit tp: Tape): Tensor = {
    val perPoint = t.sparse.indices.map { i =>
      val (cands, rows) = candFeatures(t, i)
      val logits = scorer(Tensor.fromRows(rows.toIndexedSeq).markConstant())
      val labels = cands.map(sid => if (sid == t.sparseTruthSeg(i)) 1.0 else 0.0)
      Ops.bceLogitsSum(logits, labels)
    }
    Ops.scale(perPoint.reduceLeft(Ops.add(_, _)), 1.0 / t.sparse.length)
  }

  def predictSegments(t: Traj): Array[Int] = {
    implicit val tp: Tape = NoTape
    t.sparse.indices.map { i =>
      val (cands, rows) = candFeatures(t, i)
      val logits = scorer(Tensor.fromRows(rows.toIndexedSeq).markConstant())
      cands(logits.argmax(0, logits.size))
    }.toArray
  }
}

object GraphMmModel {
  def init(net: RoadNetwork, node2vec: Tensor): GraphMmModel =
    new GraphMmModel(net, node2vec, Mlp(3 * node2vec.cols + 1, 64, 1, new Random(61L)))

  def train(model: GraphMmModel, trajs: IndexedSeq[Traj], epochs: Int = 6,
            log: String => Unit = _ => ()): Seq[Double] = {
    Trainer.fit(trajs, model.params, new Adam(model.params, lr = 2e-3), epochs, batchSize = 16,
      seed = 67L, label = "GraphMM", log = log)((t, tp) => model.loss(t)(tp))
  }
}

final class GraphMm(val model: GraphMmModel, protected val planner: RoutePlanner) extends PointMatcher {
  val name = "GraphMM"
  def matchPoints(t: Traj): Array[Int] = model.predictSegments(t)
}
