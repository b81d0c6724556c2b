package repro.mm

import repro.geo.{RoadNetwork, RoutePlanner}
import repro.nn._
import repro.traj.{SparseFrame, Traj}
import scala.util.Random

/** DeepMM (paper ref [32]): end-to-end deep map matching. A transformer
  * encoder embeds the GPS sequence; every point is classified with a
  * softmax over ALL n segments of the road network (score = embedding dot
  * product) — no candidate set and no directional features, which is the
  * design contrast with MMA (and the source of its heavier inference cost).
  */
final class DeepMmModel(
    val net: RoadNetwork,
    val encFc: Linear,
    val encoder: TransformerEncoder,
    val segOut: Embedding, // n x dh scoring table
) extends Module {

  def params: Seq[Tensor] = encFc.params ++ encoder.params ++ segOut.params

  def features(t: Traj): Array[Array[Double]] = new SparseFrame(net, t).rows

  /** Constant spatial-prior bias: each point's nearby segments get a
    * proximity bonus (DeepMM's grid-based spatial encoding analogue; the
    * softmax itself still ranges over ALL n segments). Without it the
    * embedding table would have to memorise the whole city's geometry from
    * a few hundred trajectories.
    */
  private def spatialBias(t: Traj): Tensor = {
    val b = Tensor.zeros(t.sparse.length, net.numSegments)
    t.sparse.indices.foreach { i =>
      val c = net.candidates(t.sparse(i).xy, 64)
      c.ids.indices.foreach(j => b.data(i * net.numSegments + c.ids(j)) = 3.0 * math.exp(-c.dists(j) / 40.0))
    }
    b.markConstant()
  }

  /** l x n logits over every segment of the network. */
  def logits(t: Traj)(implicit tp: Tape): Tensor = {
    val enc = encoder(encFc(Tensor.fromRows(features(t).toIndexedSeq).markConstant()))
    Ops.add(Ops.matmul(enc, Ops.transpose(segOut.table)), spatialBias(t))
  }

  def loss(t: Traj)(implicit tp: Tape): Tensor =
    Ops.scale(Ops.ceRowsSum(logits(t), t.sparseTruthSeg), 1.0 / t.sparse.length)

  def predictSegments(t: Traj): Array[Int] = {
    implicit val tp: Tape = NoTape
    val lg = logits(t)
    Array.tabulate(t.sparse.length)(i => lg.argmax(i * lg.cols, (i + 1) * lg.cols) - i * lg.cols)
  }
}

object DeepMmModel {
  def init(net: RoadNetwork): DeepMmModel = {
    val rnd = new Random(53L)
    val dh = 32 // model width
    new DeepMmModel(net, Linear(3, dh, rnd),
      TransformerEncoder(dh, 2, 128, 2, rnd), Embedding(net.numSegments, dh, rnd))
  }

  def train(model: DeepMmModel, trajs: IndexedSeq[Traj], epochs: Int = 10,
            log: String => Unit = _ => ()): Seq[Double] = {
    Trainer.fit(trajs, model.params, new Adam(model.params, lr = 2e-3), epochs, batchSize = 16,
      seed = 59L, label = "DeepMM", log = log)((t, tp) => model.loss(t)(tp))
  }
}

final class DeepMm(val model: DeepMmModel, protected val planner: RoutePlanner) extends PointMatcher {
  val name = "DeepMM"
  def matchPoints(t: Traj): Array[Int] = model.predictSegments(t)
}
